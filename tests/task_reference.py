"""A task's round quantities one call at a time, written apart from round_pass.

PerCallTask gives a task's evaluation triple (train_loss, test_metric,
gbar_l1) at x and worker m's stochastic gradient, each drawn from the
worker's own stream with numpy's own calls: rng.standard_normal(N) for the
quadratic's noise and rng.integers(0, shard size, size=B) for a classifier's
minibatch rows.  It calls neither round_pass, mlp_loss_grad nor
rng.integers_rows, and its loss and accuracy come from a forward pass written
out here, so the tests hold the engine's one path against a second one.
"""

import math

import numpy as np

from sparsevote.models import mlp_grad, partition_dataset
from sparsevote.rng import derive_rng
from sparsevote.simulator import QuadraticTask


def logits(x, arch, features):
    """The net's output layer on a batch, the layers unpacked from x as [W.ravel(), b] each."""
    pos, out = 0, features
    for layer, (fan_in, fan_out) in enumerate(zip(arch[:-1], arch[1:])):
        w = x[pos: pos + fan_out * fan_in].reshape(fan_out, fan_in)
        pos += fan_out * fan_in
        b = x[pos: pos + fan_out]
        pos += fan_out
        out = out @ w.T + b
        if layer < len(arch) - 2:
            out = np.tanh(out)
    return out


class PerCallTask:
    """The per-call reference for a task built from cfg."""

    def __init__(self, task, cfg):
        self.task = task
        self.quadratic = isinstance(task, QuadraticTask)
        if not self.quadratic:
            mode = cfg.data.get("mode", "IID")
            split = partition_dataset(task.train, cfg.m, mode, derive_rng(cfg.seed, "partition"))
            self.shards = [shard.indices for shard in split]

    def evaluation(self, x) -> tuple[float, float, float]:
        """(train_loss, test_metric, gbar_l1) at x."""
        task = self.task
        if self.quadratic:
            # No held-out data: the test metric is the exact mean gradient's l1 norm.
            gbar_l1 = float(np.abs(task.l_diag * x).sum())
            return float(0.5 * np.sum(task.l_diag * x * x)), gbar_l1, gbar_l1
        train, test = task.train, task.test
        z = logits(x, task.arch, train.features)
        z -= z.max(axis=1, keepdims=True)
        loss = np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(train)), train.labels])
        accuracy = np.mean(logits(x, task.arch, test.features).argmax(axis=1) == test.labels)
        gbar = mlp_grad(x, task.arch, train.features, train.labels)
        return float(loss), float(accuracy), float(np.abs(gbar).sum())

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
        return mlp_grad(x, task.arch, task.train.features[rows], task.train.labels[rows])
