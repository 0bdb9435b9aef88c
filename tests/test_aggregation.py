"""Majority vote and averaging against dense recount oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevote.aggregation import VoteResult, average_aggregate, majority_vote, participation_count
from sparsevote.compression import SignBatch, SparseSignVector


def msg(dim, *entries):
    idx = np.array([e[0] for e in entries], dtype=np.int64)
    sgn = np.array([e[1] for e in entries], dtype=np.int8)
    return SparseSignVector(dim, idx, sgn)


@st.composite
def message_lists(draw):
    dim = draw(st.integers(1, 10))
    n_msgs = draw(st.integers(0, 6))
    msgs = []
    for _ in range(n_msgs):
        chosen = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
        entries = [(i, draw(st.sampled_from([-1, 1]))) for i in sorted(chosen)]
        msgs.append(msg(dim, *entries))
    return dim, msgs


class TestMajorityVote:
    def test_majority_wins(self):
        vote = majority_vote([msg(1, (0, 1)), msg(1, (0, -1)), msg(1, (0, -1))], 1)
        assert vote.ternary.tolist() == [-1]
        assert vote.tallies.tolist() == [-1]

    def test_single_voter_decides(self):
        vote = majority_vote([msg(1, (0, 1)), msg(1), msg(1)], 1)
        assert vote.ternary.tolist() == [1]

    def test_tie_gives_zero(self):
        vote = majority_vote([msg(2, (0, 1)), msg(2, (0, -1))], 2)
        assert vote.ternary.tolist() == [0, 0]
        assert vote.union_support.tolist() == [0]

    def test_empty_message_list(self):
        vote = majority_vote([], 3)
        assert vote.ternary.tolist() == [0, 0, 0]
        assert vote.union_support.size == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="message 1 has dim 3, expected 2"):
            majority_vote([msg(2, (0, 1)), msg(3, (0, 1))], 2)
        with pytest.raises(ValueError, match="the messages have dim 3, expected 2"):
            majority_vote(SignBatch.stack([msg(3, (0, 1))], 3), 2)

    def test_order_invariance(self):
        msgs = [msg(4, (0, 1), (2, -1)), msg(4, (1, 1)), msg(4, (0, -1), (1, 1), (3, 1))]
        base = majority_vote(msgs, 4)
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            again = majority_vote([msgs[i] for i in perm], 4)
            assert (again.ternary == base.ternary).all()
            assert (again.tallies == base.tallies).all()

    @given(message_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_oracle(self, dim_msgs):
        dim, msgs = dim_msgs
        dense_sum = np.zeros(dim, dtype=int)
        mentioned = np.zeros(dim, dtype=bool)
        for m in msgs:
            dense_sum += m.to_dense().astype(int)
            mentioned[m.indices] = True
        for given in (msgs, SignBatch.stack(msgs, dim)):
            vote = majority_vote(given, dim)
            assert vote.tallies.dtype == vote.counts.dtype == np.int64
            assert (vote.tallies == dense_sum).all()
            assert (vote.ternary == np.sign(dense_sum)).all()
            assert vote.union_support.tolist() == np.flatnonzero(mentioned).tolist()

    @given(message_lists())
    @settings(max_examples=200, deadline=None)
    def test_dense_sign_rows_vote_as_their_messages(self, dim_msgs):
        dim, msgs = dim_msgs
        rows = np.array([m.to_dense() for m in msgs], dtype=np.int8).reshape(len(msgs), dim)
        vote, expected = majority_vote(rows, dim), majority_vote(msgs, dim)
        for name in ("ternary", "union_support", "tallies", "counts"):
            ours, ref = getattr(vote, name), getattr(expected, name)
            assert ours.dtype == ref.dtype and np.array_equal(ours, ref), name
        assert vote.dim == dim

    @pytest.mark.parametrize("rows, error", [
        (np.zeros((2, 3)), r"dense sign rows must be an \(M, 3\) int8 array, got float64 \(2, 3\)"),
        (np.zeros((2, 4), dtype=np.int8), r"got int8 \(2, 4\)"),
        (np.zeros(3, dtype=np.int8), r"got int8 \(3,\)"),
        (np.array([[1, 2, 0]], dtype=np.int8), "dense sign rows must hold -1, 0 and \\+1"),
        (np.array([[1, -128, 0]], dtype=np.int8), "dense sign rows must hold -1, 0 and \\+1"),
    ])
    def test_dense_sign_rows_that_are_not_signs_are_refused(self, rows, error):
        with pytest.raises(ValueError, match=error):
            majority_vote(rows, 3)

    def test_nonzero_message_roundtrip(self):
        vote = majority_vote([msg(4, (0, 1), (1, 1)), msg(4, (1, -1), (3, -1))], 4)
        sparse = vote.nonzero_message()
        assert (sparse.to_dense() == vote.ternary).all()

    def test_nonzero_message_of_hand_built_float_tallies_has_int8_signs(self):
        vote = VoteResult(np.array([2.5, 0.0, -1.0]), np.array([3, 2, 1]))
        sparse = vote.nonzero_message()
        assert vote.dim == 3 and vote.ternary.dtype == np.int8
        assert sparse.signs.dtype == np.int8 and sparse.entries == [(0, 1), (2, -1)]


class TestParticipationCount:
    @given(message_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_recount(self, dim_msgs):
        dim, msgs = dim_msgs
        counts = participation_count([m.indices for m in msgs], dim)
        oracle = np.zeros(dim, dtype=int)
        for m in msgs:
            for i in m.indices:
                oracle[i] += 1
        assert (counts == oracle).all()
        union = majority_vote(msgs, dim).union_support
        assert set(np.flatnonzero(counts).tolist()) == set(union.tolist())

    @given(message_lists())
    @settings(max_examples=200, deadline=None)
    def test_vote_carries_the_counts(self, dim_msgs):
        dim, msgs = dim_msgs
        rows = np.array([m.to_dense() for m in msgs], dtype=np.int8).reshape(len(msgs), dim)
        for given in (msgs, SignBatch.stack(msgs, dim), rows):
            vote = majority_vote(given, dim)
            assert np.array_equal(vote.counts, participation_count([m.indices for m in msgs], dim))
            assert np.array_equal(vote.union_support, np.flatnonzero(vote.counts))
        # The direction, union and dim are derived from the two counts, not stored beside them.
        assert [f.name for f in dataclasses.fields(VoteResult)] == ["tallies", "counts"]


class TestAverageAggregate:
    def test_mean(self):
        out = average_aggregate([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert out.tolist() == [2.0, 3.0]

    def test_single_gradient_identity(self):
        g = np.array([1.5, -2.5])
        assert (average_aggregate([g]) == g).all()

    def test_empty_list(self):
        with pytest.raises(ValueError):
            average_aggregate([])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            average_aggregate([np.ones(2), np.ones(3)])
