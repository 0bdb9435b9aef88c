"""Desk-scale classifiers and data handling for the simulator.

A small fully-connected net with tanh hidden units and a softmax
cross-entropy head, with its mean loss and exact backprop gradient from one
forward pass, the gradient alone (also of a stack of batches) and its
accuracy.  Per layer l the parameters are the slice [W_l.ravel(), b_l],
layers concatenated first to last.  Multinomial logistic regression is the
net without a hidden layer, arch [features, classes]: layout [W.ravel(), b]
with W of shape (classes, features).

Plus dataset partitioning across workers (IID or label-skewed), a big-endian
IDX image/label reader, and a Gaussian-blob synthetic classification
generator.  The diagonal quadratic needs no model code: its task in the
simulator forms L * x and the noise itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IdxFormatError",
    "Dataset",
    "WorkerShard",
    "mlp_param_count",
    "mlp_grad",
    "mlp_loss_grad",
    "mlp_accuracy",
    "partition_dataset",
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
# softmax cross-entropy heads
#
# The classifiers below take a batch as features (n, d) with labels (n,).
# The gradients also take a stack of batches, features (..., n, d) with
# labels (..., n), and return one gradient per batch, shape (..., N); each
# equals the gradient of its batch alone bit for bit.

def _as_batch(features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim < 2 or labels.shape != features.shape[:-1]:
        raise ValueError(
            f"bad batch: features {features.shape}, labels {labels.shape}"
        )
    if features.shape[-2] == 0:
        raise ValueError("batch is empty")
    return features, labels


def _softmax_parts(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logits z shifted by their row max, exp(z) and its row sums (kept as a column).

    z is logits itself, shifted in place.
    """
    # numpy reduces a short last axis row by row; with the classes moved to
    # the front the max runs across rows, and a max is exact in any order.
    logits -= np.ascontiguousarray(np.moveaxis(logits, -1, 0)).max(axis=0)[..., None]
    e = np.exp(logits)
    return logits, e, e.sum(axis=-1, keepdims=True)


def _label_entries(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Flat positions in the logits of each sample's label entry."""
    return np.arange(labels.size) * logits.shape[-1] + labels.reshape(-1)


def _xent_loss(z: np.ndarray, sums: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy over one batch from _softmax_parts."""
    return float(np.mean(np.log(sums[:, 0]) - z.reshape(-1)[_label_entries(z, labels)]))


def _xent_delta(e: np.ndarray, sums: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(softmax - onehot) / n: the mean cross-entropy's gradient in the logits, in place in e."""
    e /= sums
    e.reshape(-1)[_label_entries(e, labels)] -= 1.0
    e /= labels.shape[-1]
    return e


def _layer_grad(delta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """[dW.ravel(), db] of one dense layer from its output delta and its inputs.

    db is delta.sum(axis=-2) bit for bit.  Over two or more columns, einsum
    adds the rows in order, as sum does, at under half sum's per-row cost; a
    one-column delta takes sum, since einsum's unrolled loop would reorder it.
    """
    dw = np.swapaxes(delta, -1, -2) @ inputs
    db = np.einsum("...ij->...j", delta) if delta.shape[-1] > 1 else delta.sum(axis=-2)
    return np.concatenate([dw.reshape(*dw.shape[:-2], -1), db], axis=-1)


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


def _mlp_backward(layers, acts, delta) -> np.ndarray:
    grads: list[np.ndarray] = []
    for i in range(len(layers) - 1, -1, -1):
        grads.append(_layer_grad(delta, acts[i]))
        if i:
            # tanh' = 1 - tanh^2, with acts[i] already the tanh output
            delta = (delta @ layers[i][0]) * (1.0 - acts[i] ** 2)
    return np.concatenate(grads[::-1], axis=-1)


def mlp_grad(x: np.ndarray, arch: list[int], features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient via backprop, flattened to the layout above."""
    features, labels = _as_batch(features, labels)
    layers = _mlp_unpack(np.asarray(x, dtype=np.float64), arch)
    acts, logits = _mlp_forward(layers, features)
    _, e, sums = _softmax_parts(logits)
    return _mlp_backward(layers, acts, _xent_delta(e, sums, labels))


def mlp_loss_grad(
    x: np.ndarray, arch: list[int], features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient, mlp_grad bit for bit, of one batch from one forward pass."""
    features, labels = _as_batch(features, labels)
    layers = _mlp_unpack(np.asarray(x, dtype=np.float64), arch)
    acts, logits = _mlp_forward(layers, features)
    z, e, sums = _softmax_parts(logits)
    return _xent_loss(z, sums, labels), _mlp_backward(layers, acts, _xent_delta(e, sums, labels))


def mlp_accuracy(x: np.ndarray, arch: list[int], features: np.ndarray, labels: np.ndarray) -> float:
    features, labels = _as_batch(features, labels)
    _, logits = _mlp_forward(_mlp_unpack(np.asarray(x, dtype=np.float64), arch), features)
    return float(np.mean(logits.argmax(axis=1) == labels))


# --------------------------------------------------------------------------
# partitioning, loading

def partition_dataset(
    ds: Dataset, m: int, mode: str, rng: np.random.Generator
) -> list[WorkerShard]:
    """Split a dataset into M disjoint shards covering every sample.

    IID shuffles globally and splits into near-equal parts (sizes differ by
    at most one).  NONIID groups by label: with M <= classes each worker
    takes whole classes round-robin (exactly one when M == classes); with
    M > classes the workers assigned to a class split its samples evenly.
    A NONIID split that leaves a worker no sample is refused.
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
        empty = [w for w, part in enumerate(parts) if not part.size]
        if empty:
            raise ValueError(
                f"m {m} leaves worker {empty[0]} an empty shard: NONIID gives the samples of each of the "
                f"num_classes {c} classes to its workers, and {n} samples hold too few of class {empty[0] % c}")
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
    return [WorkerShard(w, part) for w, part in enumerate(parts)]


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
        raise ValueError(f"n_samples must be at least num_classes, got n_samples {n}, num_classes {num_classes}")
    means = rng.normal(size=(num_classes, d))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.permutation(np.arange(n) % num_classes)
    features = means[labels] + rng.normal(size=(n, d))
    return Dataset(features, labels, num_classes)
