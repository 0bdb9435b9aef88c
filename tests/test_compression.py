"""Compression operators against brute-force oracles and algebraic identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevote.compression import (
    SparseSignVector,
    error_feedback_step,
    rand_k_sign,
    top_k_select,
    top_k_sign,
)


def sort_oracle(u, k):
    """Reference selection: stable sort by (descending magnitude, index)."""
    order = sorted(range(len(u)), key=lambda i: (-abs(u[i]), i))
    return sorted(order[:k])


@st.composite
def tie_free_vectors(draw):
    """Vectors whose magnitudes are all distinct (1..n shuffled, random signs)."""
    n = draw(st.integers(1, 12))
    mags = draw(st.permutations(list(range(1, n + 1))))
    signs = [draw(st.sampled_from([-1.0, 1.0])) for _ in range(n)]
    return np.array([m * s for m, s in zip(mags, signs)])


class TestTopKSelect:
    def test_matches_sort_oracle_on_random_input(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            u = rng.normal(size=n)
            # duplicate some magnitudes to exercise the tie rule
            if n > 3 and rng.random() < 0.5:
                u[rng.integers(0, n)] = u[rng.integers(0, n)]
            k = int(rng.integers(0, n + 1))
            support, _ = top_k_select(u, k)
            assert support.tolist() == sort_oracle(u, k)

    def test_distinct_magnitudes(self):
        support, _ = top_k_select(np.array([1.0, -1.0, 2.0, -2.0]), 2)
        assert support.tolist() == [2, 3]

    def test_boundary_tie_prefers_lower_index(self):
        support, _ = top_k_select(np.array([1.0, 1.0, 1.0]), 1)
        assert support.tolist() == [0]

    def test_threshold_midpoint(self):
        _, report = top_k_select(np.array([4.0, -2.0, 1.0]), 1)
        assert report.kth_mag == 4.0
        assert report.kplus1_mag == 2.0
        assert report.rho == 3.0

    def test_threshold_sentinels(self):
        _, full = top_k_select(np.array([4.0, -2.0]), 2)
        assert full.rho == full.kth_mag == 2.0
        _, empty = top_k_select(np.array([4.0, -2.0]), 0)
        assert math.isinf(empty.rho)

    def test_threshold_separates_on_tie_free_input(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            u = rng.permutation(np.arange(1.0, n + 1)) * rng.choice([-1, 1], n)
            k = int(rng.integers(1, n))
            support, rep = top_k_select(u, k)
            assert rep.kplus1_mag < rep.rho <= rep.kth_mag
            inside = np.abs(u[support])
            outside = np.abs(np.delete(u, support))
            assert inside.min() > rep.kplus1_mag
            assert outside.max() < rep.rho

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_select(np.ones(3), 4)
        with pytest.raises(ValueError):
            top_k_select(np.ones(3), -1)

    @given(tie_free_vectors(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_permutation_equivariance(self, u, data):
        k = data.draw(st.integers(0, len(u)))
        perm = np.array(data.draw(st.permutations(list(range(len(u))))))
        base, _ = top_k_select(u, k)
        permuted, _ = top_k_select(u[perm], k)
        assert sorted(perm[permuted].tolist()) == base.tolist()

    @given(tie_free_vectors(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, u, data):
        k = data.draw(st.integers(0, len(u)))
        c = data.draw(st.sampled_from([0.25, 3.0, -2.0]))
        base, _ = top_k_select(u, k)
        scaled, _ = top_k_select(c * u, k)
        assert scaled.tolist() == base.tolist()


class TestTopKSign:
    def test_largest_magnitude_wins(self):
        msg = top_k_sign(np.array([3.0, -0.3, -0.03]), 1)
        assert msg.entries == [(0, 1)]

    def test_zero_coordinates_dropped(self):
        msg = top_k_sign(np.array([0.0, 0.0, 5.0]), 2)
        assert msg.entries == [(2, 1)]

    def test_full_sign_vector(self):
        msg = top_k_sign(np.array([1.5, -2.0, 0.0, 0.25]), 4)
        assert msg.to_dense().tolist() == [1, -1, 0, 1]

    def test_sign_flips_with_negation(self):
        u = np.array([3.0, -1.0, 2.0])
        pos = top_k_sign(u, 2)
        neg = top_k_sign(-u, 2)
        assert pos.indices.tolist() == neg.indices.tolist()
        assert (pos.signs == -neg.signs).all()


class TestRandKSign:
    def test_exactly_k_coordinates(self):
        rng = np.random.default_rng(5)
        u = np.arange(1.0, 11.0)
        for k in range(11):
            msg = rand_k_sign(u, k, rng)
            assert len(msg) == k
            assert (np.diff(msg.indices) > 0).all() or len(msg) < 2

    def test_uniform_marginals(self):
        # Each coordinate should appear with frequency k/n = 1/2, three-sigma band.
        rng = np.random.default_rng(17)
        trials = 100_000
        hits = np.zeros(4)
        u = np.array([1.0, 2.0, 3.0, 4.0])
        for _ in range(trials):
            hits[rand_k_sign(u, 2, rng).indices] += 1
        p = 0.5
        band = 3 * math.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(hits / trials - p) < band)

    def test_zero_dropped(self):
        rng = np.random.default_rng(2)
        msg = rand_k_sign(np.zeros(6), 6, rng)
        assert len(msg) == 0


class TestErrorFeedbackStep:
    def test_worked_example(self):
        msg, e_next, g, _ = error_feedback_step(
            np.array([2.0, -1.0]), np.array([1.0, 0.0]), 1.0, 1
        )
        assert g.tolist() == [3.0, -1.0]
        assert msg.entries == [(0, 1)]
        assert e_next.tolist() == [0.0, -1.0]

    def test_eta_zero_ignores_memory(self):
        g_tilde = np.array([2.0, -1.0, 0.5])
        _, e_a, g_a, _ = error_feedback_step(g_tilde, np.array([5.0, 5.0, 5.0]), 0.0, 1)
        _, e_b, g_b, _ = error_feedback_step(g_tilde, np.zeros(3), 0.0, 1)
        assert (g_a == g_tilde).all() and (g_b == g_tilde).all()
        assert (e_a == e_b).all()

    def test_k_zero_everything_retained(self):
        g_tilde = np.array([1.0, -2.0])
        msg, e_next, g, _ = error_feedback_step(g_tilde, np.array([0.5, 0.5]), 1.0, 0)
        assert len(msg) == 0
        assert (e_next == g).all()

    def test_k_full_memory_clears(self):
        _, e_next, _, _ = error_feedback_step(np.array([1.0, -2.0]), np.array([3.0, 4.0]), 1.0, 2)
        assert (e_next == 0).all()

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=16),
        st.lists(st.integers(-50, 50), min_size=1, max_size=16),
        st.integers(0, 16),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_mass_conservation(self, gl, el, k, eta):
        n = min(len(gl), len(el))
        g_tilde = np.array(gl[:n], dtype=float)
        e = np.array(el[:n], dtype=float)
        k = min(k, n)
        msg, e_next, g, _ = error_feedback_step(g_tilde, e, eta, k)
        # selected mass plus retained mass reconstructs g exactly
        selected = g - e_next
        assert (selected + e_next == g).all()
        # retained part is zero exactly on the selected support
        zeroed = np.flatnonzero(e_next == 0.0)
        assert set(msg.indices.tolist()) <= set(zeroed.tolist())
        assert np.count_nonzero(selected) <= k

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_feedback_step(np.ones(3), np.ones(2), 1.0, 1)

    def test_negative_eta(self):
        with pytest.raises(ValueError):
            error_feedback_step(np.ones(2), np.ones(2), -0.5, 1)


class TestSparseSignVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseSignVector(4, np.array([2, 1]), np.array([1, 1]))  # not increasing
        with pytest.raises(ValueError):
            SparseSignVector(4, np.array([0, 4]), np.array([1, 1]))  # out of range
        with pytest.raises(ValueError):
            SparseSignVector(4, np.array([0]), np.array([2]))  # bad sign

    def test_equality_and_dense(self):
        a = SparseSignVector(4, np.array([1, 3]), np.array([1, -1]))
        b = SparseSignVector(4, np.array([1, 3]), np.array([1, -1]))
        assert a == b and len(a) == 2
        assert a.to_dense().tolist() == [0, 1, 0, -1]
