"""A task's round quantities one call at a time, written apart from gradients and evaluate.

PerCallTask gives a task's evaluation triple (train_loss, test_metric,
gbar_l1) at x and worker m's stochastic gradient, each drawn from the
worker's own stream with numpy's own calls: rng.standard_normal(N) for the
quadratic's noise and rng.integers(0, shard size, size=B) for a classifier's
minibatch rows.  It calls neither the task's passes nor the models' pass: a
classifier's loss, gradients and accuracy come from written_out, the net's
forward and backward on one batch alone, each step a numpy call of its own,
so the tests hold the engine's one path against a second one.
"""

import math

import numpy as np

from sparsevote.models import partition_dataset
from sparsevote.rng import derive_rng
from sparsevote.simulator import QuadraticTask


def written_out(x, arch, features, labels):
    """(loss, gradient, predicted classes) of one batch, or of a stack of
    batches with one gradient each; the loss of a plain batch only."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        layers.append((x[pos: pos + fan_out * fan_in].reshape(fan_out, fan_in),
                       x[pos + fan_out * fan_in: pos + fan_out * (fan_in + 1)]))
        pos += fan_out * (fan_in + 1)
    acts = [features]
    for w, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ w.T + b))
    z = acts[-1] @ layers[-1][0].T + layers[-1][1]
    predicted = z.argmax(axis=-1)
    z = z - z.max(axis=-1, keepdims=True)
    sums = np.exp(z).sum(axis=-1, keepdims=True)
    onehot = labels[..., None] == np.arange(arch[-1])
    loss = np.mean(np.log(sums[:, 0]) - z[onehot]) if z.ndim == 2 else None
    delta = (np.exp(z) / sums - onehot) / labels.shape[-1]
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        dw = np.swapaxes(delta, -1, -2) @ acts[i]
        grads.insert(0, np.concatenate([dw.reshape(*dw.shape[:-2], -1), delta.sum(axis=-2)], axis=-1))
        if i:
            # tanh' = 1 - tanh^2, with acts[i] already the tanh output
            delta = (delta @ layers[i][0]) * (1.0 - acts[i] ** 2)
    return loss, np.concatenate(grads, axis=-1), predicted


class PerCallTask:
    """The per-call reference for a task built from cfg."""

    def __init__(self, task, cfg):
        self.task = task
        self.quadratic = isinstance(task, QuadraticTask)
        if not self.quadratic:
            mode = cfg.data.get("mode", "IID")
            self.shards = partition_dataset(task.train, cfg.m, mode, derive_rng(cfg.seed, "partition"))

    def evaluation(self, x) -> tuple[float, float, float]:
        """(train_loss, test_metric, gbar_l1) at x."""
        task = self.task
        if self.quadratic:
            # No held-out data: the test metric is the exact mean gradient's l1 norm.
            gbar_l1 = float(np.abs(task.l_diag * x).sum())
            return float(0.5 * np.sum(task.l_diag * x * x)), gbar_l1, gbar_l1
        train, test = task.train, task.test
        loss, gbar, _ = written_out(x, task.arch, train.features, train.labels)
        _, _, predicted = written_out(x, task.arch, test.features, test.labels)
        return float(loss), float(np.mean(predicted == test.labels)), float(np.abs(gbar).sum())

    def worker_grad(self, x, m, batch, rng) -> np.ndarray:
        """Worker m's stochastic gradient at x, drawn from rng."""
        task = self.task
        if self.quadratic:
            # A size-B minibatch of noisy gradients averages the noise down by sqrt(B).
            g = rng.standard_normal(task.dim)
            g *= task.noise_std / math.sqrt(batch)
            g += task.l_diag * x
            return g
        shard = self.shards[m]
        rows = shard[rng.integers(0, len(shard), size=batch)]
        return written_out(x, task.arch, task.train.features[rows], task.train.labels[rows])[1]
