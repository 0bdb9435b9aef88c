"""Desk-scale objectives and data handling for the simulator.

Three objectives, each exposing loss and an exact analytic gradient:

  * diagonal quadratic   f(x) = 0.5 * sum_n L_n x_n^2, stochastic gradients
    are L*x plus per-coordinate Gaussian noise
  * multinomial logistic regression, parameter layout [W.ravel(), b] with
    W of shape (classes, features)
  * small fully-connected net with tanh hidden units and a softmax
    cross-entropy head; per layer l the slice [W_l.ravel(), b_l], layers
    concatenated first to last

plus dataset partitioning across workers (IID or label-skewed), minibatch
sampling with replacement, a big-endian IDX image/label reader, and a
Gaussian-blob synthetic classification generator.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IdxFormatError",
    "Dataset",
    "WorkerShard",
    "quadratic_grad",
    "quadratic_loss",
    "logistic_grad",
    "logistic_loss",
    "logistic_accuracy",
    "mlp_param_count",
    "mlp_grad",
    "mlp_loss",
    "mlp_accuracy",
    "partition_dataset",
    "sample_minibatch",
    "load_idx_dataset",
    "synth_classification",
]


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, truncated payload, or count mismatch."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, d), integer labels (n,), and the class count."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match {feats.shape[0]} samples"
            )
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be positive, got {self.num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


@dataclass(frozen=True)
class WorkerShard:
    """One worker's slice of a dataset, as indices into it."""

    worker_id: int
    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.indices.size)


# --------------------------------------------------------------------------
# diagonal quadratic

def quadratic_grad(
    x: np.ndarray, l_diag: np.ndarray, noise_std: float | np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Stochastic gradient L*x + z with z ~ N(0, noise_std^2) per coordinate.

    z is drawn as noise_std times a standard normal draw, scaled and shifted
    in place in the array that is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    l_diag = np.asarray(l_diag, dtype=np.float64)
    if x.shape != l_diag.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs l_diag {l_diag.shape}")
    g = rng.standard_normal(x.size)
    g *= noise_std
    g += l_diag * x
    return g


def quadratic_loss(x: np.ndarray, l_diag: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    l_diag = np.asarray(l_diag, dtype=np.float64)
    if x.shape != l_diag.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs l_diag {l_diag.shape}")
    return float(0.5 * np.sum(l_diag * x * x))


# --------------------------------------------------------------------------
# multinomial logistic regression

def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _logistic_unpack(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, int]:
    if x.size % (d + 1) != 0:
        raise ValueError(f"parameter size {x.size} not divisible by features+1 = {d + 1}")
    c = x.size // (d + 1)
    w = x[: c * d].reshape(c, d)
    b = x[c * d:]
    return w, b, c


def _check_batch(features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ValueError(
            f"bad batch: features {features.shape}, labels {labels.shape}"
        )
    if features.shape[0] == 0:
        raise ValueError("batch is empty")
    return features, labels


def logistic_grad(x: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient; one sample reduces to (softmax - onehot) x features."""
    features, labels = _check_batch(features, labels)
    x = np.asarray(x, dtype=np.float64)
    w, b, c = _logistic_unpack(x, features.shape[1])
    p = _softmax(features @ w.T + b)
    p[np.arange(labels.size), labels] -= 1.0
    p /= labels.size
    return np.concatenate([(p.T @ features).ravel(), p.sum(axis=0)])


def logistic_loss(x: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    features, labels = _check_batch(features, labels)
    x = np.asarray(x, dtype=np.float64)
    w, b, _ = _logistic_unpack(x, features.shape[1])
    z = features @ w.T + b
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(log_norm - z[np.arange(labels.size), labels]))


def logistic_accuracy(x: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    features, labels = _check_batch(features, labels)
    x = np.asarray(x, dtype=np.float64)
    w, b, _ = _logistic_unpack(x, features.shape[1])
    return float(np.mean((features @ w.T + b).argmax(axis=1) == labels))


# --------------------------------------------------------------------------
# small fully-connected net, tanh hidden units, manual backprop

def mlp_param_count(arch: list[int]) -> int:
    if len(arch) < 2 or any(a < 1 for a in arch):
        raise ValueError(f"arch needs at least input and output sizes, got {arch}")
    return sum(arch[i + 1] * (arch[i] + 1) for i in range(len(arch) - 1))


def _mlp_unpack(x: np.ndarray, arch: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    if x.size != mlp_param_count(arch):
        raise ValueError(
            f"parameter size {x.size} does not match arch {arch} "
            f"({mlp_param_count(arch)} expected)"
        )
    layers = []
    pos = 0
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        w = x[pos: pos + fan_out * fan_in].reshape(fan_out, fan_in)
        pos += fan_out * fan_in
        b = x[pos: pos + fan_out]
        pos += fan_out
        layers.append((w, b))
    return layers


def _mlp_forward(layers, features):
    acts = [features]
    for w, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ w.T + b))
    w, b = layers[-1]
    logits = acts[-1] @ w.T + b
    return acts, logits


def mlp_grad(x: np.ndarray, arch: list[int], features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient via backprop, flattened to the layout above."""
    features, labels = _check_batch(features, labels)
    x = np.asarray(x, dtype=np.float64)
    layers = _mlp_unpack(x, arch)
    acts, logits = _mlp_forward(layers, features)
    delta = _softmax(logits)
    delta[np.arange(labels.size), labels] -= 1.0
    delta /= labels.size
    grads: list[np.ndarray] = []
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        grads.append(np.concatenate([(delta.T @ acts[i]).ravel(), delta.sum(axis=0)]))
        if i:
            # tanh' = 1 - tanh^2, with acts[i] already the tanh output
            delta = (delta @ w) * (1.0 - acts[i] ** 2)
    return np.concatenate(grads[::-1])


def mlp_loss(x: np.ndarray, arch: list[int], features: np.ndarray, labels: np.ndarray) -> float:
    features, labels = _check_batch(features, labels)
    x = np.asarray(x, dtype=np.float64)
    _, logits = _mlp_forward(_mlp_unpack(x, arch), features)
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(log_norm - z[np.arange(labels.size), labels]))


def mlp_accuracy(x: np.ndarray, arch: list[int], features: np.ndarray, labels: np.ndarray) -> float:
    features, labels = _check_batch(features, labels)
    x = np.asarray(x, dtype=np.float64)
    _, logits = _mlp_forward(_mlp_unpack(x, arch), features)
    return float(np.mean(logits.argmax(axis=1) == labels))


# --------------------------------------------------------------------------
# partitioning, sampling, loading

def partition_dataset(
    ds: Dataset, m: int, mode: str, rng: np.random.Generator
) -> list[WorkerShard]:
    """Split a dataset into M disjoint shards covering every sample.

    IID shuffles globally and splits into near-equal parts (sizes differ by
    at most one).  NONIID groups by label: with M <= classes each worker
    takes whole classes round-robin (exactly one when M == classes); with
    M > classes the workers assigned to a class split its samples evenly.
    """
    n = len(ds)
    if m < 1:
        raise ValueError(f"worker count must be positive, got {m}")
    if m > n:
        raise ValueError(f"cannot split {n} samples across {m} workers")
    if mode == "IID":
        parts = np.array_split(rng.permutation(n), m)
    elif mode == "NONIID":
        c = ds.num_classes
        parts = [[] for _ in range(m)]
        for cls in range(c):
            members = rng.permutation(np.flatnonzero(ds.labels == cls))
            if m <= c:
                parts[cls % m].extend(members)
            else:
                owners = [w for w in range(m) if w % c == cls]
                for owner, chunk in zip(owners, np.array_split(members, len(owners))):
                    parts[owner].extend(chunk)
        parts = [np.asarray(p, dtype=np.int64) for p in parts]
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
    return [WorkerShard(w, part) for w, part in enumerate(parts)]


def sample_minibatch(
    ds: Dataset, shard: WorkerShard, batch: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw batch samples from the shard uniformly with replacement."""
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    if len(shard) == 0:
        raise ValueError(f"worker {shard.worker_id} has an empty shard")
    picks = shard.indices[rng.integers(0, len(shard), size=batch)]
    return ds.features[picks], ds.labels[picks]


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise IdxFormatError(f"truncated {what}: wanted {count} bytes, got {len(data)}")
    return data


def load_idx_dataset(images_path, labels_path) -> Dataset:
    """Read an IDX image/label pair into a Dataset.

    Big-endian headers; pixels are flattened and scaled to [0, 1].  The two
    files must agree on the sample count.
    """
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, "images header"))
        if magic != _IDX_IMAGES_MAGIC:
            raise IdxFormatError(f"images magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}")
        raw = _read_exact(fh, n * rows * cols, "images payload")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    with open(labels_path, "rb") as fh:
        magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, "labels header"))
        if magic != _IDX_LABELS_MAGIC:
            raise IdxFormatError(f"labels magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}")
        labels = np.frombuffer(_read_exact(fh, n_labels, "labels payload"), dtype=np.uint8)
    if n_labels != n:
        raise IdxFormatError(f"sample count mismatch: {n} images vs {n_labels} labels")
    num_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(pixels.astype(np.float64) / 255.0, labels.astype(np.int64), num_classes)


def synth_classification(
    n: int, d: int, num_classes: int, separation: float, rng: np.random.Generator
) -> Dataset:
    """Balanced Gaussian blobs: class means at distance ~separation, unit noise."""
    if n < num_classes:
        raise ValueError(f"need at least one sample per class, got n={n}, classes={num_classes}")
    means = rng.normal(size=(num_classes, d))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.permutation(np.arange(n) % num_classes)
    features = means[labels] + rng.normal(size=(n, d))
    return Dataset(features, labels, num_classes)
