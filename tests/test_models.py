"""Model gradients against finite differences; data plumbing against recounts.

A classifier's loss and accuracy are the ones mlp_pass returns; the
quadratic's loss and gradients are the ones its task's evaluate and gradients give.
"""

import contextlib
import math
import os
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsevote import models
from sparsevote.models import (
    Dataset,
    IdxFormatError,
    _layer_grad,
    load_idx_dataset,
    mlp_grad,
    mlp_param_count,
    mlp_pass,
    partition_dataset,
    synth_classification,
)
from sparsevote.rng import derive_rng
from sparsevote.simulator import ExperimentConfig, QuadraticTask
from task_reference import written_out


def central_difference(loss_fn, x, step=1e-4):
    grad = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (loss_fn(hi) - loss_fn(lo)) / (2 * step)
    return grad


def mlp_loss(x, arch, features, labels):
    return mlp_pass(x, arch, features, labels)[0]


def mlp_accuracy(x, arch, features, labels):
    """The accuracy on features and labels as mlp_pass's test set."""
    return mlp_pass(x, arch, features, labels, (features, labels))[2]


def small_batch(rng, n, d, c):
    feats = rng.normal(size=(n, d))
    labels = rng.integers(0, c, size=n)
    return feats, labels.astype(np.int64)


def quadratic_task(lipschitz, noise_std=0.0):
    cfg = ExperimentConfig.from_dict({"algorithm": "S3GD_MV", "m": 1, "t": 1, "n": len(lipschitz),
                                      "model": {"kind": "quadratic", "lipschitz": list(lipschitz),
                                                "noise_std": noise_std}})
    return QuadraticTask(cfg)


def quadratic_loss_and_grads(task, x, rngs):
    """The loss at x and one gradient row per stream, batch 1."""
    return task.evaluate(x[None])[0][0], task.gradients(x, rngs)[0:len(rngs)]


class TestQuadratic:
    def test_noiseless_gradient(self):
        l_diag = np.array([1.0, 2.0, 4.0])
        x = np.array([1.0, -1.0, 0.5])
        _, g = quadratic_loss_and_grads(quadratic_task(l_diag), x, [np.random.default_rng(0)])
        assert np.array_equal(g[0], l_diag * x)

    def test_loss_value(self):
        loss, _ = quadratic_loss_and_grads(quadratic_task([2.0, 4.0]), np.array([1.0, 1.0]), [])
        assert loss == pytest.approx(3.0)

    def test_loss_gradient_consistent(self):
        rng = np.random.default_rng(3)
        task = quadratic_task(rng.uniform(0.5, 4.0, size=6))
        x = rng.normal(size=6)
        fd = central_difference(lambda z: quadratic_loss_and_grads(task, z, [])[0], x)
        _, g = quadratic_loss_and_grads(task, x, [np.random.default_rng(0)])
        assert np.allclose(g[0], fd, atol=1e-8)

    def test_noise_is_unbiased(self):
        rng = np.random.default_rng(7)
        task = quadratic_task(np.ones(4), noise_std=2.0)
        # 100 000 rows from one stream, each drawn after the last.
        _, draws = quadratic_loss_and_grads(task, np.zeros(4), [rng] * 100_000)
        mean = draws.mean(axis=0)
        # 3 sigma band for the empirical mean of N(0, 4) over 1e5 draws
        assert np.all(np.abs(mean) < 3 * 2.0 / np.sqrt(100_000))
        assert draws.std() == pytest.approx(2.0, rel=0.02)


class TestLogistic:
    # Logistic regression is the net without a hidden layer, arch [d, C].

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        d, c = 4, 3
        feats, labels = small_batch(rng, 6, d, c)
        x = rng.normal(scale=0.5, size=c * (d + 1))
        fd = central_difference(lambda z: mlp_loss(z, [d, c], feats, labels), x)
        g = mlp_grad(x, [d, c], feats, labels)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_single_sample_closed_form(self):
        # At zero weights probs are uniform: grad_W = (1/C - onehot) x^T
        d, c = 3, 4
        feats = np.array([[1.0, 2.0, -1.0]])
        labels = np.array([2])
        x = np.zeros(c * (d + 1))
        g = mlp_grad(x, [d, c], feats, labels)
        w_grad = g[: c * d].reshape(c, d)
        b_grad = g[c * d:]
        resid = np.full(c, 1.0 / c)
        resid[2] -= 1.0
        assert np.allclose(w_grad, np.outer(resid, feats[0]))
        assert np.allclose(b_grad, resid)

    def test_balanced_batch_zero_bias_grad(self):
        # one sample per class at zero weights: bias residuals cancel
        d, c = 2, 3
        feats = np.zeros((c, d))
        labels = np.arange(c)
        g = mlp_grad(np.zeros(c * (d + 1)), [d, c], feats, labels)
        assert np.allclose(g[c * d:], 0.0, atol=1e-15)

    def test_accuracy(self):
        d, c = 2, 2
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([0, 1])
        # weights that score class 0 by +x0, class 1 by -x0
        x = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])
        assert mlp_accuracy(x, [d, c], feats, labels) == 1.0

    def test_loss_at_uniform(self):
        d, c = 3, 5
        feats = np.ones((4, d))
        labels = np.zeros(4, dtype=np.int64)
        assert mlp_loss(np.zeros(c * (d + 1)), [d, c], feats, labels) == pytest.approx(np.log(c))


class TestMlp:
    def test_param_count(self):
        # 4 -> 8 -> 3: (4*8 + 8) + (8*3 + 3)
        assert mlp_param_count([4, 8, 3]) == 40 + 27

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        arch = [3, 5, 4]
        feats, labels = small_batch(rng, 5, 3, 4)
        x = rng.normal(scale=0.4, size=mlp_param_count(arch))
        fd = central_difference(lambda z: mlp_loss(z, arch, feats, labels), x)
        g = mlp_grad(x, arch, feats, labels)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_two_hidden_layers_finite_differences(self):
        rng = np.random.default_rng(17)
        arch = [2, 4, 3, 3]
        feats, labels = small_batch(rng, 4, 2, 3)
        x = rng.normal(scale=0.4, size=mlp_param_count(arch))
        fd = central_difference(lambda z: mlp_loss(z, arch, feats, labels), x)
        g = mlp_grad(x, arch, feats, labels)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_zero_weights_head_bias_grad(self):
        # all-zero params: softmax uniform, head bias grad = mean(uniform - onehot)
        arch = [2, 3, 4]
        feats = np.array([[1.0, -1.0], [0.5, 2.0]])
        labels = np.array([0, 3])
        g = mlp_grad(np.zeros(mlp_param_count(arch)), arch, feats, labels)
        head_bias = g[-4:]
        expected = np.full(4, 0.25)
        expected[0] -= 0.5 * 1.0
        expected[3] -= 0.5 * 1.0
        assert np.allclose(head_bias, expected, atol=1e-15)

    @given(st.sampled_from([[3, 2], [4, 5, 3], [2, 3, 4, 2]]), st.integers(1, 5),
           st.integers(1, 9), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_stacked_batches_and_fused_loss_are_bitwise(self, arch, stack, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=0.5, size=mlp_param_count(arch))
        feats = rng.normal(size=(stack, n, arch[0]))
        labels = rng.integers(0, arch[-1], size=(stack, n))
        grads = mlp_grad(x, arch, feats, labels)
        assert grads.shape == (stack, x.size)
        for i in range(stack):
            assert grads[i].tobytes() == mlp_grad(x, arch, feats[i], labels[i]).tobytes()
            _, grad, _ = mlp_pass(x, arch, feats[i], labels[i], (feats[i], labels[i]))
            assert grad.tobytes() == grads[i].tobytes()

    def test_accuracy_and_loss_finite(self):
        rng = np.random.default_rng(19)
        arch = [3, 4, 2]
        feats, labels = small_batch(rng, 10, 3, 2)
        x = rng.normal(scale=0.3, size=mlp_param_count(arch))
        acc = mlp_accuracy(x, arch, feats, labels)
        assert 0.0 <= acc <= 1.0
        assert np.isfinite(mlp_loss(x, arch, feats, labels))


class TestSharedPass:
    """mlp_pass on the engine's two batch forms against each batch's steps
    written out alone, bit for bit: a plain batch with a test set (the
    evaluation's training and test sets) and an (M, B) stack of minibatches
    without one (the round's worker gradients).

    From eight classes up numpy sums a row with eight accumulators; the
    benchmark's logistic workload has ten.
    """

    @given(st.integers(1, 16), st.lists(st.integers(1, 9), max_size=2), st.integers(2, 39),
           st.integers(1, 80), st.integers(1, 6), st.integers(1, 9), st.integers(1, 40),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_each_batch_has_the_bits_of_its_own_pass(self, d, hidden, c, n, m, b, n_test, seed):
        rng = np.random.default_rng(seed)
        arch = [d, *hidden, c]
        x = rng.normal(scale=rng.uniform(0.1, 3.0), size=mlp_param_count(arch))
        feats, labels = small_batch(rng, n, d, c)
        rows = rng.integers(0, n, size=(m, b))
        test_feats, test_labels = small_batch(rng, n_test, d, c)
        loss, gbar, accuracy = mlp_pass(x, arch, feats, labels, (test_feats, test_labels))
        _, grads, no_accuracy = mlp_pass(x, arch, feats[rows], labels[rows])

        want_loss, want_gbar, _ = written_out(x, arch, feats, labels)
        _, want_grads, _ = written_out(x, arch, feats[rows], labels[rows])
        _, _, predicted = written_out(x, arch, test_feats, test_labels)
        assert loss == want_loss
        assert gbar.tobytes() == want_gbar.tobytes()
        assert accuracy == np.mean(predicted == test_labels)
        assert grads.shape == (m, x.size) and grads.tobytes() == want_grads.tobytes()
        assert no_accuracy is None

    @given(st.integers(1, 16), st.lists(st.integers(1, 9), max_size=2), st.integers(2, 39),
           st.integers(1, 80), st.integers(1, 6), st.integers(1, 40), st.integers(1, 9),
           st.integers(0, 2**16), st.sampled_from(["one row", "partway", "every row"]), st.just(False))
    # Logits of all zeros at iterate 0; a +inf, a -inf and both in each row
    # at iterates 1, 2 and 3.
    @example(d=3, hidden=[], c=4, n=5, m=2, n_test=3, count=4, seed=0, chunk="partway", edges=True)
    @example(d=2, hidden=[3], c=3, n=4, m=1, n_test=2, count=4, seed=1, chunk="one row", edges=True)
    @settings(max_examples=60, deadline=None)
    def test_each_iterate_of_a_stack_has_the_bits_of_its_own_pass(self, d, hidden, c, n, m, n_test, count, seed,
                                                                   chunk, edges):
        """Both batch forms at a (T, N) stack of iterates, with the row max
        in chunks of one row, of one more row than an iterate has (which
        end partway through the next iterate's rows) and of every row at
        once; without the loss, the same gradient and accuracy."""
        rng = np.random.default_rng(seed)
        arch = [d, *hidden, c]
        xs = rng.normal(scale=rng.uniform(0.1, 3.0), size=(count, mlp_param_count(arch)))
        if edges:
            xs[0] = 0.0
            # The last c entries are the output layer's bias.
            xs[1, -c] = math.inf
            xs[2, -c + 1] = -math.inf
            xs[3, -c:-c + 2] = math.inf, -math.inf
        feats, labels = small_batch(rng, n, d, c)
        rows = rng.integers(0, n, size=(m, 3))
        test_feats, test_labels = small_batch(rng, n_test, d, c)

        def passes(features, labels, test):
            """mlp_pass, and _pass without the loss, on one batch form."""
            copied_max = {"one row": c, "partway": c * (labels.size + 1), "every row": 2**62}[chunk]
            # A +inf logit's shift is inf - inf: NaN, with numpy's warning.
            with np.errstate(invalid="ignore") if edges else contextlib.nullcontext(), \
                    mock.patch.object(models, "_COPIED_MAX", copied_max):
                return mlp_pass(xs, arch, features, labels, test), \
                    models._pass(xs, arch, features, labels, test, with_loss=False)

        (loss, gbar, accuracy), (no_loss, gbar_alone, accuracy_alone) = passes(
            feats, labels, (test_feats, test_labels))
        (_, grads, no_accuracy), (_, grads_alone, _) = passes(feats[rows], labels[rows], None)
        with np.errstate(invalid="ignore") if edges else contextlib.nullcontext():
            wants = [(written_out(x, arch, feats, labels), written_out(x, arch, feats[rows], labels[rows])[1],
                      written_out(x, arch, test_feats, test_labels)[2]) for x in xs]

        assert loss.shape == accuracy.shape == (count,) and no_accuracy is None
        assert gbar.shape == (count, xs.shape[1]) and grads.shape == (count, m, xs.shape[1])
        # Without the loss, the gradients and accuracy are the same.
        assert no_loss is None and gbar_alone.tobytes() == gbar.tobytes() and grads_alone.tobytes() == grads.tobytes()
        assert accuracy_alone.tobytes() == accuracy.tobytes()
        for t, ((want_loss, want_gbar, _), want_grads, predicted) in enumerate(wants):
            assert loss[t].tobytes() == want_loss.tobytes() and accuracy[t] == np.mean(predicted == test_labels)
            assert gbar[t].tobytes() == want_gbar.tobytes() and grads[t].tobytes() == want_grads.tobytes()

    @pytest.mark.parametrize("copied_max", [1, 2, 5, 2**62])
    def test_the_chunked_row_max_shifts_as_the_max_along_the_rows(self, copied_max):
        """Equal values, where a zero's sign may differ, and equal exp bits."""
        z = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [-1.0, -0.0, -2.0],
                      [math.inf, 1.0, -math.inf], [-math.inf, 2.0, -math.inf], [-math.inf] * 3,
                      [1e300, -1e300, 5e-324]])
        with np.errstate(invalid="ignore"):
            want = z - z.max(axis=1, keepdims=True)
            with mock.patch.object(models, "_COPIED_MAX", copied_max):
                got = z.copy()
                models._subtract_row_max(got)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.exp(got).tobytes() == np.exp(want).tobytes()

    def test_workload_shape(self):
        # The benchmark's logistic passes: the evaluation's 1600 training and
        # 400 test rows, and the round's ten minibatches of 32; 10 classes
        # over 16 features.
        rng = np.random.default_rng(5)
        arch = [16, 10]
        x = rng.normal(scale=0.5, size=mlp_param_count(arch))
        feats, labels = small_batch(rng, 1600, 16, 10)
        test_feats, test_labels = small_batch(rng, 400, 16, 10)
        rows = rng.integers(0, 1600, size=(10, 32))
        loss, gbar, accuracy = mlp_pass(x, arch, feats, labels, (test_feats, test_labels))
        want_loss, want_gbar, _ = written_out(x, arch, feats, labels)
        assert loss == want_loss and gbar.tobytes() == want_gbar.tobytes()
        assert accuracy == np.mean(written_out(x, arch, test_feats, test_labels)[2] == test_labels)
        grads = mlp_pass(x, arch, feats[rows], labels[rows])[1]
        assert grads.tobytes() == written_out(x, arch, feats[rows], labels[rows])[1].tobytes()

    def test_without_a_test_set_the_accuracy_is_none(self):
        feats, labels = small_batch(np.random.default_rng(0), 4, 2, 3)
        assert mlp_pass(np.zeros(9), [2, 3], feats, labels)[2] is None

    def test_bad_inputs(self):
        feats, labels = small_batch(np.random.default_rng(0), 4, 2, 3)
        with pytest.raises(ValueError, match="test set must be one batch"):
            mlp_pass(np.zeros(9), [2, 3], feats, labels, (feats[None], labels[None]))
        with pytest.raises(ValueError, match="bad batch"):
            mlp_pass(np.zeros(9), [2, 3], feats, labels[:3])
        for x in (np.zeros((1, 1, 9)), np.zeros((0, 9)), np.float64(0.0)):
            with pytest.raises(ValueError, match=re.escape(f"x must be a parameter vector or a (T, N) stack of "
                                                           f"them, got shape {x.shape}")):
                mlp_pass(x, [2, 3], feats, labels)
        for x in (np.zeros(8), np.zeros((3, 8))):
            with pytest.raises(ValueError, match=re.escape("x has 8 parameters, but arch [2, 3] has 9")):
                mlp_pass(x, [2, 3], feats, labels)


def deltas(seed, shapes, count):
    """count arrays of the given shapes in turn, magnitudes over 16 decades, both signs."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        shape = shapes[i % len(shapes)]
        yield rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


class TestBiasColumnSum:
    """The bias gradient's column sum against delta.sum(axis=-2), bit for bit.

    The full-batch delta is 2-D and the stacked minibatch delta 3-D; the
    dependency-floor CI step runs these at the oldest numpy supported.
    """

    def test_einsum_adds_rows_in_sums_order_over_two_or_more_columns(self):
        shapes = [(1600, 10), (10, 32, 10), (1600, 2), (10, 33, 32), (2, 3, 50, 7), (1, 5), (7, 1, 3)]
        for delta in deltas(2024, shapes, 200):
            assert np.einsum("...ij->...j", delta).tobytes() == delta.sum(axis=-2).tobytes()

    @pytest.mark.parametrize("shape", [(1600, 10), (10, 32, 10), (1600, 1), (10, 32, 1), (257, 1), (1, 1)])
    def test_layer_grad_bias_is_the_column_sum_at_every_width(self, shape):
        for delta in deltas(shape[-1], [shape], 20):
            inputs = np.ones((*shape[:-1], 3))
            bias = _layer_grad(delta, inputs)[..., -shape[-1]:]
            assert bias.tobytes() == delta.sum(axis=-2).tobytes()


def toy_dataset(n=20, d=3, c=4, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    labels = np.arange(n, dtype=np.int64) % c
    return Dataset(feats, labels, c)


class TestPartition:
    def test_iid_sizes_and_cover(self):
        ds = toy_dataset(n=23)
        shards = partition_dataset(ds, 5, "IID", np.random.default_rng(0))
        sizes = [s.size for s in shards]
        assert max(sizes) - min(sizes) <= 1
        merged = np.concatenate(shards)
        assert np.array_equal(np.sort(merged), np.arange(23))
        assert len(shards) == 5 and all(s.dtype == np.int64 for s in shards)

    def test_noniid_single_class_per_worker(self):
        ds = toy_dataset(n=40, c=4)
        shards = partition_dataset(ds, 4, "NONIID", np.random.default_rng(0))
        for shard in shards:
            assert np.unique(ds.labels[shard]).size == 1

    def test_noniid_fewer_workers_than_classes(self):
        ds = toy_dataset(n=40, c=4)
        shards = partition_dataset(ds, 2, "NONIID", np.random.default_rng(0))
        merged = np.concatenate(shards)
        assert np.array_equal(np.sort(merged), np.arange(40))
        # each worker holds whole classes only
        for shard in shards:
            for cls in np.unique(ds.labels[shard]):
                assert np.sum(ds.labels[shard] == cls) == np.sum(ds.labels == cls)

    def test_noniid_more_workers_than_classes(self):
        ds = toy_dataset(n=60, c=3)
        shards = partition_dataset(ds, 6, "NONIID", np.random.default_rng(0))
        merged = np.concatenate(shards)
        assert np.array_equal(np.sort(merged), np.arange(60))
        for shard in shards:
            assert shard.dtype == np.int64 and shard.size > 0
            assert np.unique(ds.labels[shard]).size == 1

    def test_noniid_split_that_leaves_a_worker_no_sample_is_refused(self):
        # The 13 training samples of the seed-0, 16-sample, 10-class synthetic set.
        ds = synth_classification(16, 16, 10, 3.0, derive_rng(0, "data")).subset(np.arange(13))
        assert np.bincount(ds.labels, minlength=10)[7] == 0
        with pytest.raises(ValueError) as info:
            partition_dataset(ds, 12, "NONIID", derive_rng(0, "partition"))
        assert str(info.value) == (
            "m 12 leaves worker 7 an empty shard: NONIID gives the samples of each of the num_classes 10 "
            "classes to its workers, and 13 samples hold too few of class 7")

    def test_errors(self):
        ds = toy_dataset(n=10)
        with pytest.raises(ValueError):
            partition_dataset(ds, 0, "IID", np.random.default_rng(0))
        with pytest.raises(ValueError):
            partition_dataset(ds, 11, "IID", np.random.default_rng(0))
        with pytest.raises(ValueError):
            partition_dataset(ds, 2, "SORTED", np.random.default_rng(0))


def minibatch_rows(shard, batch, rng):
    """A classifier's minibatch: batch rows of the shard, drawn as a round draws them."""
    return shard[rng.integers(0, shard.size, batch)]


class TestMinibatch:
    def test_draws_from_shard_only(self):
        shard = np.arange(10, 20)
        rows = minibatch_rows(shard, 8, np.random.default_rng(1))
        assert rows.shape == (8,)
        assert np.all((rows >= 10) & (rows < 20))

    def test_uniform_over_shard(self):
        shard = np.arange(8)
        rng = np.random.default_rng(5)
        trials = 40_000
        counts = np.bincount(
            np.concatenate([minibatch_rows(shard, 100, rng) for _ in range(trials // 100)]),
            minlength=8,
        )
        expected = trials / 8
        assert np.all(np.abs(counts - expected) < 4 * np.sqrt(expected))


def write_idx_pair(tmp_path, images, labels):
    img_path = tmp_path / "img.idx"
    lab_path = tmp_path / "lab.idx"
    n, rows, cols = images.shape
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.astype(np.uint8).tobytes())
    return img_path, lab_path


class TestIdxLoader:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, images, labels)
        ds = load_idx_dataset(img_path, lab_path)
        assert ds.features.shape == (5, 12)
        assert np.allclose(ds.features, images.reshape(5, 12) / 255.0)
        assert np.array_equal(ds.labels, labels)
        assert ds.num_classes == 3

    def test_bad_image_magic(self, tmp_path):
        img_path, lab_path = write_idx_pair(
            tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), np.zeros(1, dtype=np.uint8)
        )
        raw = bytearray(img_path.read_bytes())
        raw[3] = 0x99
        img_path.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx_dataset(img_path, lab_path)

    def test_truncated_pixels(self, tmp_path):
        img_path, lab_path = write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8)
        )
        raw = img_path.read_bytes()
        img_path.write_bytes(raw[:-3])
        with pytest.raises(IdxFormatError, match="images payload"):
            load_idx_dataset(img_path, lab_path)

    def test_count_mismatch(self, tmp_path):
        img_path, lab_path = write_idx_pair(
            tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8)
        )
        raw = bytearray(lab_path.read_bytes())
        raw[7] = 2
        lab_path.write_bytes(bytes(raw[:8]) + bytes(2))
        with pytest.raises(IdxFormatError, match="count"):
            load_idx_dataset(img_path, lab_path)

    # Each header claims more payload than the file holds: refused before any
    # read, where a read of 2**40 bytes ran out of memory and one of 2**93
    # ended in "cannot fit 'int' into an index-sized integer".
    @pytest.mark.parametrize("dims", [(2**20, 2**10, 2**10), (2**31, 2**31, 2**31)])
    def test_an_images_header_past_the_file_is_refused_by_its_sizes(self, tmp_path, dims):
        img_path, lab_path = write_idx_pair(tmp_path, np.zeros((1, 1, 1), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        img_path.write_bytes(struct.pack(">IIII", 0x00000803, *dims) + bytes(10))
        message = f"{img_path}: images payload of {math.prod(dims)} bytes, but 10 are left in the file"
        with pytest.raises(IdxFormatError, match=f"^{re.escape(message)}$"):
            load_idx_dataset(img_path, lab_path)

    def test_a_labels_header_past_the_file_is_refused_by_its_sizes(self, tmp_path):
        img_path, lab_path = write_idx_pair(tmp_path, np.zeros((3, 1, 1), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
        lab_path.write_bytes(struct.pack(">II", 0x00000801, 2**31) + bytes(3))
        message = f"{lab_path}: labels payload of {2**31} bytes, but 3 are left in the file"
        with pytest.raises(IdxFormatError, match=f"^{re.escape(message)}$"):
            load_idx_dataset(img_path, lab_path)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_bytes_past_the_payload_are_refused(self, tmp_path, which):
        paths = dict(zip(("images", "labels"), write_idx_pair(
            tmp_path, np.zeros((2, 1, 1), dtype=np.uint8), np.zeros(2, dtype=np.uint8))))
        paths[which].write_bytes(paths[which].read_bytes() + bytes(1))
        message = f"{paths[which]}: {which} payload of 2 bytes, but 3 are left in the file"
        with pytest.raises(IdxFormatError, match=f"^{re.escape(message)}$"):
            load_idx_dataset(paths["images"], paths["labels"])

    def test_a_bad_magic_and_a_count_mismatch_name_their_files(self, tmp_path):
        img_path, lab_path = write_idx_pair(tmp_path, np.zeros((2, 1, 1), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        good = lab_path.read_bytes()
        lab_path.write_bytes(b"\x00\x00\x08\x99" + good[4:])
        with pytest.raises(IdxFormatError, match=f"^{re.escape(str(lab_path))}: labels magic 0x00000899"):
            load_idx_dataset(img_path, lab_path)
        lab_path.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
        message = f"sample count mismatch: 2 images in {img_path}, 1 labels in {lab_path}"
        with pytest.raises(IdxFormatError, match=f"^{re.escape(message)}$"):
            load_idx_dataset(img_path, lab_path)

    def test_a_truncated_header_names_its_file(self, tmp_path):
        img_path, lab_path = write_idx_pair(tmp_path, np.zeros((1, 1, 1), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        lab_path.write_bytes(lab_path.read_bytes()[:5])
        message = f"{lab_path}: labels header of 8 bytes, but 5 are left in the file"
        with pytest.raises(IdxFormatError, match=f"^{re.escape(message)}$"):
            load_idx_dataset(img_path, lab_path)

    # open() reads an int as a file descriptor: load_idx_dataset(r, w) on a
    # pipe's two ends once ended in "Illegal seek" and closed r.
    @pytest.mark.parametrize("which", ["images_path", "labels_path"])
    def test_an_int_path_is_refused_by_name_and_its_fd_left_open(self, tmp_path, which):
        img_path, lab_path = write_idx_pair(tmp_path, np.zeros((1, 1, 1), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        r, w = os.pipe()
        try:
            paths = {"images_path": r, "labels_path": w} if which == "images_path" else \
                {"images_path": img_path, "labels_path": w}
            with pytest.raises(ValueError, match=f"^{which} must be a file path, got {paths[which]}$"):
                load_idx_dataset(**paths)
            os.fstat(r)
            os.fstat(w)
        finally:
            os.close(r)
            os.close(w)


class TestSynthClassification:
    def test_shapes_and_balance(self):
        ds = synth_classification(100, 5, 4, 3.0, np.random.default_rng(0))
        assert ds.features.shape == (100, 5)
        assert ds.num_classes == 4
        counts = np.bincount(ds.labels, minlength=4)
        assert max(counts) - min(counts) <= 1

    def test_separation_controls_difficulty(self):
        rng = np.random.default_rng(1)
        near = synth_classification(500, 4, 3, 0.1, rng)
        far = synth_classification(500, 4, 3, 8.0, np.random.default_rng(1))
        # class means should be much farther apart in the separated set
        def spread(ds):
            means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
            return np.linalg.norm(means[0] - means[1])
        assert spread(far) > spread(near) * 3


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 1)
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.zeros(3, dtype=np.int64), 1)
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)

    def test_subset(self):
        ds = toy_dataset(n=10)
        sub = ds.subset(np.array([1, 3, 5]))
        assert sub.features.shape == (3, 3)
        assert np.array_equal(sub.labels, ds.labels[[1, 3, 5]])
        assert sub.num_classes == ds.num_classes
