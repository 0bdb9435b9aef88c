"""Desk-scale classifiers and data handling for the simulator.

A small fully-connected net with tanh hidden units and a softmax
cross-entropy head.  It has one forward, one softmax head and one backward,
in mlp_pass: the mean loss of a batch, the exact backprop gradient of each
of several batches (a stack of batches too) and the accuracy on a test set,
all from one pass over their rows, each with the bits of its batch's own
pass.  mlp_grad is its one-batch case.  Per layer l the parameters are the
slice [W_l.ravel(), b_l], layers concatenated first to last.  Multinomial
logistic regression is the net without a hidden layer, arch [features,
classes]: layout [W.ravel(), b] with W of shape (classes, features).

Plus dataset partitioning across workers (IID or label-skewed), a big-endian
IDX image/label reader, and a Gaussian-blob synthetic classification
generator.  The diagonal quadratic needs no model code: its task in the
simulator forms L * x and the noise itself.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import _checks

__all__ = [
    "IdxFormatError",
    "Dataset",
    "mlp_param_count",
    "mlp_pass",
    "mlp_grad",
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
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        _checks.count(self.num_classes, "num_classes")
        labels = _checks.indices(self.labels, "labels", self.num_classes, f"num_classes={self.num_classes}")
        if labels.shape != (feats.shape[0],):
            raise ValueError(f"labels shape {labels.shape} does not match {feats.shape[0]} samples")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


# --------------------------------------------------------------------------
# small fully-connected net, tanh hidden units, softmax cross-entropy head
#
# A batch is features (n, d) with labels (n,), or a stack of batches,
# features (..., n, d) with labels (..., n), whose gradient is one per batch,
# shape (..., N), each equal to the gradient of its batch alone bit for bit.

def _as_batch(features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """features as float64, labels as int64; mlp_pass checks their range with the other batches'."""
    features = np.asarray(features, dtype=np.float64)
    labels = _checks.indices(labels, "labels")
    if features.ndim < 2 or labels.shape != features.shape[:-1]:
        raise ValueError(f"bad batch: features {features.shape}, labels {labels.shape}")
    if features.shape[-2] == 0:
        raise ValueError("batch is empty")
    return features, labels


def _layer_grad(delta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """[dW.ravel(), db] of one dense layer from its output delta and its inputs.

    db is delta.sum(axis=-2) bit for bit.  Over two or more columns, einsum
    adds the rows in order, as sum does, at under half sum's per-row cost; a
    one-column delta takes sum, since einsum's unrolled loop would reorder it.
    """
    dw = np.swapaxes(delta, -1, -2) @ inputs
    db = np.einsum("...ij->...j", delta) if delta.shape[-1] > 1 else delta.sum(axis=-2)
    return np.concatenate([dw.reshape(*dw.shape[:-2], -1), db], axis=-1)


def mlp_param_count(arch: list[int]) -> int:
    if len(arch) < 2:
        raise ValueError(f"arch needs at least input and output sizes, got {arch}")
    for i, width in enumerate(arch):
        _checks.count(width, f"arch[{i}]")
    return sum(arch[i + 1] * (arch[i] + 1) for i in range(len(arch) - 1))


def _mlp_unpack(x: np.ndarray, arch: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    if x.size != mlp_param_count(arch):
        raise ValueError(f"parameter size {x.size} does not match arch {arch} ({mlp_param_count(arch)} expected)")
    layers = []
    pos = 0
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        w = x[pos: pos + fan_out * fan_in].reshape(fan_out, fan_in)
        pos += fan_out * fan_in
        b = x[pos: pos + fan_out]
        pos += fan_out
        layers.append((w, b))
    return layers


def _split(buffer: np.ndarray, shapes: list[tuple], spans: list[tuple[int, int]]) -> list[np.ndarray]:
    """Each batch's rows of a row buffer, as views in the batch's own shape."""
    return [buffer[lo:hi].reshape(*shape, -1) for shape, (lo, hi) in zip(shapes, spans)]


def mlp_pass(
    x: np.ndarray,
    arch: list[int],
    batches: list[tuple[np.ndarray, np.ndarray]],
    test: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, list[np.ndarray], float | None]:
    """The net's loss, gradients and accuracy from one forward, softmax head and backward.

    batches holds (features, labels) pairs, each a batch or a stack; test,
    if given, is one more batch.  Returns (loss, grads, accuracy): the mean
    cross-entropy over the rows of batches[0], each batch's mean
    cross-entropy gradient in the layout above, and the fraction of test
    rows whose largest logit is their label's (None without test).  Every
    label, the test set's too, must be an integer in [0, arch[-1]).

    Each layer's outputs are one row buffer, [batches in order | test rows].
    Every matmul runs per batch, on that batch's operands in its own shape,
    into the batch's slice of the buffer.  The steps that work on single
    entries or single rows run once over all rows: + b and tanh; and over
    the labelled rows, the row max, the shift, exp, the row sums, the divide
    by them and the label's -1.  The test rows take their argmax before the
    shift.  What adds over a batch's samples stays per batch: the loss
    mean, the / n, the bias column sums, delta.T @ inputs and delta @ W.  So
    each result has the bits its batch would give in a pass of its own.
    """
    layers = _mlp_unpack(np.asarray(x, dtype=np.float64), arch)
    batches = [_as_batch(features, labels) for features, labels in batches]
    if not batches:
        raise ValueError("mlp_pass needs at least one batch")
    inputs = [features for features, _ in batches]
    targets = [labels.reshape(-1) for _, labels in batches]
    if test is not None:
        test = _as_batch(*test)
        if test[0].ndim != 2:
            raise ValueError(f"test set must be one batch, got features {test[0].shape}")
        inputs.append(test[0])
        targets.append(test[1])
    # Every label, the batches' then the test set's, checked as one array.
    labels = _checks.indices(np.concatenate(targets), "labels", arch[-1], f"{arch[-1]} classes")
    shapes = [features.shape[:-1] for features in inputs]
    bounds = [0]
    for shape in shapes:
        bounds.append(bounds[-1] + math.prod(shape))
    spans = list(zip(bounds, bounds[1:]))
    labelled = bounds[len(batches)]

    # acts[i] holds each input's rows into layer i, outs[i] layer i's buffer.
    acts, outs = [inputs], []
    for i, (w, b) in enumerate(layers):
        out = np.empty((bounds[-1], w.shape[0]))
        views = _split(out, shapes, spans)
        for rows, view in zip(acts[-1], views):
            np.matmul(rows, w.T, out=view)
        out += b
        if i < len(layers) - 1:
            np.tanh(out, out=out)
        acts.append(views)
        outs.append(out)

    logits = outs[-1]
    accuracy = None
    if test is not None:
        accuracy = float(np.mean(logits[labelled:].argmax(axis=1) == labels[labelled:]))
    # numpy reduces a short last axis row by row; with the classes moved to
    # the front the max runs across rows, and a max is exact in any order.
    z = logits[:labelled]
    z -= np.ascontiguousarray(z.T).max(axis=0)[:, None]
    e = np.exp(z)
    sums = e.sum(axis=1, keepdims=True)
    # Flat positions in z of each labelled row's label entry.
    entries = np.arange(0, z.size, z.shape[1])
    entries += labels[:labelled]
    first = bounds[1]
    loss = float(np.mean(np.log(sums[:first, 0]) - z.reshape(-1)[entries[:first]]))
    # delta = (softmax - onehot) / n, in place in e.
    e /= sums
    e.reshape(-1)[entries] -= 1.0
    for (lo, hi), (_, y) in zip(spans, batches):
        e[lo:hi] /= y.shape[-1]

    shapes = shapes[:len(batches)]
    grads: list[list[np.ndarray]] = [[] for _ in batches]
    delta = e
    for i in range(len(layers) - 1, -1, -1):
        deltas = _split(delta, shapes, spans)
        for grad, d, rows in zip(grads, deltas, acts[i]):
            grad.append(_layer_grad(d, rows))
        if i:
            delta = np.empty((labelled, arch[i]))
            for d, view in zip(deltas, _split(delta, shapes, spans)):
                np.matmul(d, layers[i][0], out=view)
            # tanh' = 1 - tanh^2, with outs[i - 1] already the tanh output
            slope = np.square(outs[i - 1][:labelled])
            np.subtract(1.0, slope, out=slope)
            delta *= slope
    return loss, [np.concatenate(grad[::-1], axis=-1) for grad in grads], accuracy


def mlp_grad(x: np.ndarray, arch: list[int], features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient via backprop, flattened to the layout above."""
    return mlp_pass(x, arch, [(features, labels)])[1][0]


# --------------------------------------------------------------------------
# partitioning, loading

def partition_dataset(
    ds: Dataset, m: int, mode: str, rng: np.random.Generator
) -> list[np.ndarray]:
    """Split a dataset into M disjoint shards covering every sample: worker
    m's shard is item m, an int64 array of indices into the dataset.

    IID shuffles globally and splits into near-equal parts (sizes differ by
    at most one).  NONIID groups by label: with M <= classes each worker
    takes whole classes round-robin (exactly one when M == classes); with
    M > classes the workers assigned to a class split its samples evenly.
    A NONIID split that leaves a worker no sample is refused.
    """
    n = len(ds)
    _checks.count(m, "m", high=n)
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
    return parts


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read(fh, size: int, what: str, rest: bool = False) -> bytes:
    """The next size bytes, checked before the read to be there (and, for rest, to end the file)."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < size or rest and left != size:
        raise IdxFormatError(f"{fh.name}: {what} of {size} bytes, but {left} are left in the file")
    return fh.read(size)


def load_idx_dataset(images_path, labels_path) -> Dataset:
    """Read an IDX image/label pair into a Dataset.

    Big-endian headers; pixels are flattened and scaled to [0, 1].  The two
    files must agree on the sample count.
    """
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read(fh, 16, "images header"))
        if magic != _IDX_IMAGES_MAGIC:
            raise IdxFormatError(f"{images_path}: images magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}")
        raw = _read(fh, n * rows * cols, "images payload", rest=True)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    with open(labels_path, "rb") as fh:
        magic, n_labels = struct.unpack(">II", _read(fh, 8, "labels header"))
        if magic != _IDX_LABELS_MAGIC:
            raise IdxFormatError(f"{labels_path}: labels magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}")
        labels = np.frombuffer(_read(fh, n_labels, "labels payload", rest=True), dtype=np.uint8)
    if n_labels != n:
        raise IdxFormatError(f"sample count mismatch: {n} images in {images_path}, {n_labels} labels in {labels_path}")
    num_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(pixels.astype(np.float64) / 255.0, labels.astype(np.int64), num_classes)


def synth_classification(
    n: int, d: int, num_classes: int, separation: float, rng: np.random.Generator
) -> Dataset:
    """Balanced Gaussian blobs: class means at distance ~separation, unit noise."""
    _checks.count(n, "n_samples")
    _checks.count(d, "d")
    _checks.count(num_classes, "num_classes")
    _checks.real(separation, "separation")
    if n < num_classes:
        raise ValueError(f"n_samples must be at least num_classes, got n_samples {n}, num_classes {num_classes}")
    means = rng.normal(size=(num_classes, d))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.permutation(np.arange(n) % num_classes)
    features = means[labels] + rng.normal(size=(n, d))
    return Dataset(features, labels, num_classes)
