"""Every public scalar count, real and index array goes through _checks.

Each converted argument refuses a bool, a non-integral float (counts only),
NaN, inf and a string with one ValueError line in _checks' wording, naming
the argument.
"""

import math
import os
import re

import numpy as np
import pytest

from sparsevote import _checks
from sparsevote.aggregation import majority_vote, participation_count
from sparsevote.codec import (
    Bitstream,
    CommLedger,
    analytic_round_cost,
    count_field_width,
    decode_sparse_sign,
    encode_sparse_sign,
    message_bit_lengths,
    rice_parameter,
)
from sparsevote.compression import (
    SignBatch,
    SparseSignVector,
    error_feedback_step,
    rand_k_select,
    top_k_select,
)
from sparsevote.models import Dataset, mlp_grad, mlp_param_count, mlp_pass, partition_dataset, synth_classification
from sparsevote.rng import WorkerStreams, derive_rng, worker_rngs
from sparsevote.simulator import (
    ExperimentConfig,
    RoundMetrics,
    emit_results,
    emit_sweep,
    load_results,
    resolve_k,
    selection_histogram,
    sweep,
    update_model,
)


def toy_set():
    return Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)


# (argument name as the error names it, call passing v as that argument).
COUNTS = [
    ("dim", "SparseSignVector", lambda v: SparseSignVector(v, [], [])),
    ("dim", "SignBatch", lambda v: SignBatch(v, [], [], [])),
    ("k", "top_k_select", lambda v: top_k_select(np.ones(4), v)),
    ("k", "rand_k_select", lambda v: rand_k_select(np.ones(4), v, np.random.default_rng(0))),
    ("k", "error_feedback_step", lambda v: error_feedback_step(np.ones(4), np.zeros(4), 1.0, v)),
    ("bit_len", "Bitstream", lambda v: Bitstream(b"", v)),
    ("dim", "count_field_width", count_field_width),
    ("count", "rice_parameter", lambda v: rice_parameter(v, 10)),
    ("dim", "rice_parameter", lambda v: rice_parameter(1, v)),
    ("dim", "message_bit_lengths", lambda v: message_bit_lengths(v, [], [])),
    ("dim", "decode_sparse_sign", lambda v: decode_sparse_sign(Bitstream(b"", 0), v)),
    ("m", "analytic_round_cost", lambda v: analytic_round_cost("S3GD_MV", v, 10, 2)),
    ("dim", "analytic_round_cost", lambda v: analytic_round_cost("S3GD_MV", 2, v, 2)),
    ("k", "analytic_round_cost", lambda v: analytic_round_cost("S3GD_MV", 2, 10, v)),
    ("dim", "majority_vote", lambda v: majority_vote([], v)),
    ("dim", "participation_count", lambda v: participation_count([[0]], v)),
    ("num_classes", "Dataset", lambda v: Dataset(np.zeros((2, 2)), [0, 1], v)),
    ("arch[1]", "mlp_param_count", lambda v: mlp_param_count([2, v])),
    ("m", "partition_dataset", lambda v: partition_dataset(toy_set(), v, "IID", np.random.default_rng(0))),
    ("n_samples", "synth_classification",
     lambda v: synth_classification(v, 2, 2, 1.0, np.random.default_rng(0))),
    ("d", "synth_classification", lambda v: synth_classification(20, v, 2, 1.0, np.random.default_rng(0))),
    ("num_classes", "synth_classification",
     lambda v: synth_classification(20, 2, v, 1.0, np.random.default_rng(0))),
    ("master_seed", "derive_rng", lambda v: derive_rng(v, "data")),
    ("stream index 1", "derive_rng", lambda v: derive_rng(0, "worker", 2, v)),
    ("master_seed", "WorkerStreams", lambda v: WorkerStreams(v, 2, 3)),
    ("round index", "worker_rngs", lambda v: worker_rngs(WorkerStreams(0, 2, 3), v)),
    ("dim", "resolve_k", lambda v: resolve_k(0.5, v)),
]

REALS = [
    ("eta", "error_feedback_step", lambda v: error_feedback_step(np.ones(4), np.zeros(4), v, 2)),
    ("uplink_bits at round 0", "CommLedger.record", lambda v: CommLedger("S3GD_MV").record(0, v, 1.0)),
    ("downlink_bits at round 3", "CommLedger.record", lambda v: CommLedger("S3GD_MV").record(3, 1.0, v)),
    ("separation", "synth_classification", lambda v: synth_classification(20, 2, 2, v, np.random.default_rng(0))),
    ("delta", "update_model", lambda v: update_model(np.zeros(2), np.ones(2), v)),
    ("mu", "update_model", lambda v: update_model(np.zeros(2), np.ones(2), 0.1, None, v)),
]

# Integer arrays: (name, call passing the array v).
ARRAYS = [
    ("indices", "SparseSignVector", lambda v: SparseSignVector(8, v, [1] * len(v))),
    ("indices", "SignBatch", lambda v: SignBatch(8, v, [1] * len(v), [len(v)])),
    ("counts", "message_bit_lengths", lambda v: message_bit_lengths(8, [0] * len(v), v)),
    ("indices", "message_bit_lengths", lambda v: message_bit_lengths(8, v, [len(v)])),
    ("supports", "participation_count", lambda v: participation_count([v], 8)),
    ("labels", "Dataset", lambda v: Dataset(np.zeros((len(v), 2)), v, 2)),
    ("labels", "mlp_grad", lambda v: mlp_grad(np.zeros(9), [2, 3], np.ones((len(v), 2)), np.array(v))),
    ("labels", "mlp_pass test set", lambda v: mlp_pass(
        np.zeros(9), [2, 3], np.ones((1, 2)), [0], (np.ones((len(v), 2)), np.array(v)))),
]

NOT_COUNTS = [True, 2.5, math.nan, math.inf, "3"]
NOT_REALS = [True, math.nan, math.inf, "3"]
NOT_INTEGER_ARRAYS = [[True], [1.5], [math.nan], [math.inf], ["3"]]


def refused(call, value, message):
    with pytest.raises(ValueError) as err:
        call(value)
    assert re.fullmatch(message, str(err.value)), str(err.value)


@pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
@pytest.mark.parametrize("name, call", [pytest.param(n, c, id=f"{f}-{n}") for n, f, c in COUNTS])
def test_a_count_is_refused_by_name(name, call, value):
    refused(call, value, re.escape(f"{name} must be an integer, got {value!r}"))


@pytest.mark.parametrize("value", NOT_REALS, ids=repr)
@pytest.mark.parametrize("name, call", [pytest.param(n, c, id=f"{f}-{n}") for n, f, c in REALS])
def test_a_real_is_refused_by_name(name, call, value):
    refused(call, value, re.escape(f"{name} must be a finite number, got {value!r}"))


@pytest.mark.parametrize("value", NOT_INTEGER_ARRAYS, ids=repr)
@pytest.mark.parametrize("name, call", [pytest.param(n, c, id=f"{f}-{n}") for n, f, c in ARRAYS])
def test_an_index_array_that_is_not_integers_is_refused_by_name(name, call, value):
    refused(call, value, re.escape(f"{name} must be integers, got {np.asarray(value).dtype} values"))


# The cases each found with a wrong result, or a TypeError, AttributeError or
# IndexError, before the arguments went through _checks.
@pytest.mark.parametrize("call, message", [
    (lambda: SparseSignVector(5, [1.7, 3.2], [1.5, -1.9]), "indices must be integers, got float64 values"),
    (lambda: SparseSignVector(5, [1, 3], [1.5, -1.9]), "signs must be -1 or +1"),
    (lambda: SparseSignVector(5, [1, 3], [257, -1]), "signs must be -1 or +1"),
    (lambda: Dataset(np.zeros((2, 2)), [0.7, 1.2], 2), "labels must be integers, got float64 values"),
    (lambda: Dataset(np.zeros((2, 2)), [0, 1], 2.5), "num_classes must be an integer, got 2.5"),
    (lambda: update_model(np.zeros(2), np.ones(2), True), "delta must be a finite number, got True"),
    (lambda: update_model(np.zeros(2), np.ones(2), math.nan), "delta must be a finite number, got nan"),
    (lambda: analytic_round_cost("S3GD_MV", True, 10, 2.5), "m must be an integer, got True"),
    (lambda: analytic_round_cost("S3GD_MV", 2, 10, 2.5), "k must be an integer, got 2.5"),
    (lambda: resolve_k(0.5, True), "dim must be an integer, got True"),
    (lambda: derive_rng(1.5, "data"), "master_seed must be an integer, got 1.5"),
    (lambda: CommLedger("S3GD_MV").record(0, math.nan, 1), "uplink_bits at round 0 must be a finite number, got nan"),
    (lambda: top_k_select(np.ones(4), 2.5), "k must be an integer, got 2.5"),
    (lambda: rice_parameter(2.5, 10), "count must be an integer, got 2.5"),
    (lambda: synth_classification(20.5, 2, 2, 1.0, np.random.default_rng(0)),
     "n_samples must be an integer, got 20.5"),
    (lambda: participation_count([[0, 5]], 4), "supports out of range for dim=4: must lie in [0, 4), got [0, 5]"),
    # message_bit_lengths once priced these as 12, 12 and 16 bits.
    (lambda: message_bit_lengths(10, [5, 2], [2]), "indices must be strictly increasing within each message"),
    (lambda: message_bit_lengths(10, [1.5, 2.5], [2]), "indices must be integers, got float64 values"),
    (lambda: message_bit_lengths(10, [5, 20], [2]), "indices out of range for dim=10: must lie in [0, 10), got [5, 20]"),
    # It once ended in numpy's unnamed broadcast error, a bare IndexError and a TypeError.
    (lambda: message_bit_lengths(10, [[1, 2], [3, 4]], [4]),
     "indices and counts must be 1-D arrays, got shapes (2, 2) and (1,)"),
    (lambda: message_bit_lengths(10, [[1, 2], [3, 4]], [2, 2]),
     "indices and counts must be 1-D arrays, got shapes (2, 2) and (2,)"),
    (lambda: message_bit_lengths(10, [1, 2], [[2]]),
     "indices and counts must be 1-D arrays, got shapes (2,) and (1, 1)"),
    # SignBatch.quantize once ended in IndexError on 1-D arrays.
    (lambda: SignBatch.quantize(5, np.array([1, 2]), np.array([1.0, -2.0])),
     "supports and values must be (M, K) arrays of one shape, got (2,) and (2,)"),
    (lambda: SignBatch.quantize(5, [[1, 2]], [[1.0, -2.0, 3.0]]),
     "supports and values must be (M, K) arrays of one shape, got (1, 2) and (1, 3)"),
    # It once dropped a NaN value as if it were an exact zero, then refused
    # it after numpy's "invalid value encountered in sign" warning.
    (lambda: SignBatch.quantize(4, [[0, 1]], [[math.nan, 1.0]]), "values must not hold NaN, which has no sign"),
    # SignBatch once cast its counts to int64, so [2.7, -0.7] built counts [2, 0].
    (lambda: SignBatch(4, [0, 1], [1, 1], [2.7, -0.7]), "counts must be integers, got float64 values"),
    (lambda: SignBatch(4, [0, 1], [1, 1], ["1", "1"]), "counts must be integers, got <U1 values"),
    (lambda: SignBatch(4, [0, 1], [1, 1], [True, True]), "counts must be integers, got bool values"),
    # participation_count once counted a repeated index's worker twice, as [0, 2, 0].
    (lambda: participation_count([[1, 1]], 3), "supports must each hold strictly increasing indices"),
    (lambda: participation_count(np.array([[0, 2], [2, 1]]), 3), "supports must each hold strictly increasing indices"),
    # participation_count once ended in numpy's "diff requires input that is
    # at least one dimensional" and a bare TypeError.
    (lambda: participation_count([0, 1], 4),
     "supports must be a list of 1-D index arrays or an (M, K) array, got [0, 1]"),
    (lambda: participation_count(5, 4), "supports must be a list of 1-D index arrays or an (M, K) array, got 5"),
    # These once ended in a bare AttributeError.
    (lambda: majority_vote([1, 2], 3),
     "msgs must be a SignBatch, a list of SparseSignVector or (M, 3) int8 rows, got [1, 2]"),
    (lambda: rand_k_select(np.ones(3), 1, None), "rng must be a numpy Generator, got None"),
    (lambda: encode_sparse_sign([1, 2]), "v must be a SparseSignVector, got [1, 2]"),
    # mlp_pass once read arch[-1] before it checked arch and its batch: a bare
    # IndexError, a TypeError and "'int' object is not iterable".
    (lambda: mlp_pass(np.zeros(3), [], np.ones((2, 2)), np.array([0, 1])),
     "arch must be a list of layer widths, input and output sizes at least, got []"),
    (lambda: mlp_pass(np.zeros(3), "ab", np.ones((2, 2)), np.array([0, 1])),
     "arch must be a list of layer widths, input and output sizes at least, got 'ab'"),
    (lambda: mlp_pass(np.zeros(2), [1, 1], 5, [0]), "bad batch: features (), labels (1,)"),
    # A feature width other than arch[0] once ended in numpy's matmul error.
    (lambda: mlp_pass(np.zeros(4), [1, 2], np.ones((2, 3)), np.array([0, 1])),
     "features have 3 columns, but arch[0] is 1"),
    (lambda: mlp_pass(np.zeros(4), [1, 2], np.ones((2, 1)), np.array([0, 1]), (np.ones((2, 3)), np.array([0, 1]))),
     "test features have 3 columns, but arch[0] is 1"),
    # These once ended in a bare AttributeError, a TypeError and numpy's
    # broadcast error.
    (lambda: sweep(ExperimentConfig("S3GD_MV", 2, 1), 5, [0.5]),
     "unknown sweep axis 5, expected one of ('GAMMA', 'M', 'ETA', 'MU')"),
    (lambda: SignBatch.stack(5, 3), "messages must be a list of SparseSignVector, got 5"),
    (lambda: update_model(np.zeros(3), np.ones(3), 0.1, np.ones(2), 0.5), "shape mismatch: x (3,) vs velocity (2,)"),
    # These once ended in a bare AttributeError.
    (lambda: partition_dataset(toy_set(), 2, "IID", None), "rng must be a numpy Generator, got None"),
    (lambda: synth_classification(20, 2, 2, 1.0, None), "rng must be a numpy Generator, got None"),
    (lambda: decode_sparse_sign(b"ab", 3), "stream must be a Bitstream, got b'ab'"),
    (lambda: emit_results([], os.devnull, 5), "unknown format 5"),
    (lambda: load_results(os.devnull, 5), "unknown format 5"),
    (lambda: emit_sweep([], os.devnull, None), "unknown format None"),
    (lambda: selection_histogram("ab"), "metrics must be a list of RoundMetrics, got 'ab'"),
    # These once ended in a bare TypeError.
    (lambda: decode_sparse_sign(Bitstream(5, 8), 3), "data must be bytes, got 5"),
    (lambda: analytic_round_cost(["S3GD_MV"], 1, 2, 1), "unknown algorithm ['S3GD_MV']"),
    (lambda: CommLedger(["S3GD_MV"]), "unknown algorithm ['S3GD_MV']"),
    (lambda: derive_rng(0, ["a"]), "unknown stream kind ['a']"),
    (lambda: sweep(ExperimentConfig("S3GD_MV", 2, 1), "gamma", 5), "values must be a list of numbers, got 5"),
    (lambda: sweep(ExperimentConfig("S3GD_MV", 2, 1), "gamma", [0.5], 3),
     "seeds must be a list of integers or None, got 3"),
    (lambda: sweep(ExperimentConfig("S3GD_MV", 2, 1, n=4), "gamma", [None]), "values must be numbers, got None"),
    (lambda: sweep(ExperimentConfig("S3GD_MV", 2, 1, n=4), "gamma", [[1]]), "values must be numbers, got [1]"),
    (lambda: sweep(ExperimentConfig("S3GD_MV", 2, 1, n=4), "gamma", [0.5, "abc"]),
     "values must be numbers, got 'abc'"),
    (lambda: selection_histogram([RoundMetrics(0, "S3GD_MV", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, np.ones(2)),
                                  RoundMetrics(1, "S3GD_MV", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, np.ones(3))]),
     "metrics must hold selection counts of one shape, got shapes [(2,), (3,)]"),
])
def test_each_case_that_was_wrong_is_refused_by_name(call, message):
    refused(lambda _: call(), None, re.escape(message))


class TestMlpLabels:
    """A label outside [0, C) once put its -1 on another row, or ended in IndexError."""

    @pytest.mark.parametrize("labels, seen", [([3, 0], "[0, 3]"), ([0, -1], "[-1, 0]"), ([1, 3], "[1, 3]")])
    def test_a_label_out_of_range_is_refused(self, labels, seen):
        refused(lambda v: mlp_grad(np.zeros(9), [2, 3], np.ones((2, 2)), v), np.array(labels),
                re.escape(f"labels out of range for 3 classes: must lie in [0, 3), got {seen}"))

    def test_a_test_label_out_of_range_is_refused(self):
        with pytest.raises(ValueError, match=r"^labels out of range for 3 classes"):
            mlp_pass(np.zeros(9), [2, 3], np.ones((2, 2)), [0, 1], (np.ones((2, 2)), [0, 3]))

    def test_labels_of_any_integer_dtype_are_read(self):
        feats = np.random.default_rng(0).normal(size=(4, 2))
        want = mlp_grad(np.ones(9), [2, 3], feats, np.array([0, 2, 1, 2]))
        for dtype in (np.uint8, np.int32, np.int64):
            got = mlp_grad(np.ones(9), [2, 3], feats, np.array([0, 2, 1, 2], dtype=dtype))
            assert got.tobytes() == want.tobytes()


class TestFastPath:
    def test_a_bool_is_neither_a_count_nor_a_real(self):
        for value in (True, np.bool_(True)):
            assert not _checks.is_count(value) and not _checks.is_real(value)
        with pytest.raises(ValueError, match="^n must be an integer, got True$"):
            _checks.count(True, "n")
        with pytest.raises(ValueError, match="^x must be a finite number, got True$"):
            _checks.real(True, "x")

    @pytest.mark.parametrize("value", [3, np.int8(3), np.int64(3), np.uint64(3)], ids=repr)
    def test_numpy_integers_are_counts(self, value):
        assert _checks.count(value, "n") is value and _checks.real(value, "x") is value

    @pytest.mark.parametrize("value", [0.5, np.float16(0.5), np.float32(0.5), np.float64(0.5)], ids=repr)
    def test_numpy_floats_are_reals(self, value):
        assert _checks.real(value, "x") is value
        assert not _checks.is_count(value)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, np.float64(math.inf), 10**400],
                             ids=["nan", "-inf", "np.float64(inf)", "10**400"])
    def test_a_value_past_the_float_range_is_not_a_real(self, value):
        assert not _checks.is_real(value)


def test_a_numpy_integer_dim_is_a_dim():
    v = SparseSignVector(8, [0, 5], [1, -1])
    stream = encode_sparse_sign(SparseSignVector(np.int64(8), v.indices, v.signs))
    assert stream == encode_sparse_sign(v)
    assert decode_sparse_sign(stream, np.int64(8)) == v
    assert message_bit_lengths(np.uint64(8), v.indices, [2]).tolist() == [stream.bit_len]
    assert rice_parameter(np.int8(2), np.int64(8)) == rice_parameter(2, 8) == 1


class TestIndices:
    def test_empty_arrays_of_any_dtype_pass(self):
        for empty in ([], np.empty(0), np.empty(0, dtype=np.uint8)):
            out = _checks.indices(empty, "v", 3, "dim=3")
            assert out.dtype == np.int64 and out.size == 0

    def test_an_int64_array_comes_back_as_it_is(self):
        values = np.array([0, 2, 1])
        assert _checks.indices(values, "v", 3, "dim=3") is values

    @pytest.mark.parametrize("values, seen", [
        ([0, 3], "[0, 3]"), ([-1, 0], "[-1, 0]"), ([-2**63, 0], f"[{-2**63}, 0]"),
        (np.array([2**64 - 1], dtype=np.uint64), "[-1, -1]"),
    ])
    def test_either_end_out_of_range_is_refused(self, values, seen):
        with pytest.raises(ValueError, match=re.escape(f"v out of range for dim=3: must lie in [0, 3), got {seen}")):
            _checks.indices(values, "v", 3, "dim=3")

    def test_a_bound_past_int64_holds_every_int64(self):
        high = 2**63 + 1
        assert _checks.indices([2**63 - 1], "v", high, "dim").tolist() == [2**63 - 1]
        with pytest.raises(ValueError, match="out of range"):
            _checks.indices([-2**63], "v", high, "dim")


def test_quantize_reads_lists_as_arrays():
    # Lists once ended in AttributeError.
    want = SignBatch.quantize(8, np.array([[1, 5], [0, 2]]), np.array([[1.0, -2.0], [0.0, 3.0]]))
    assert SignBatch.quantize(8, [[1, 5], [0, 2]], [[1.0, -2.0], [0.0, 3.0]]) == want
    assert want == SignBatch(8, [1, 5, 2], [1, -1, 1], [2, 1])
