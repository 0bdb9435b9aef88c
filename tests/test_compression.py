"""Compression operators against brute-force oracles and algebraic identities."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsevote import simulator
from sparsevote.codec import ALGORITHMS
from sparsevote.compression import (
    SignBatch,
    _error_feedback_rows,
    SparseSignVector,
    ThresholdReport,
    error_feedback_step,
    rand_k_select,
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


def ref_top_k_select(u, k):
    """The argpartition + sort selection that the value partition replaced.

    Test-only reference: top_k_select must return the same support and the
    same ThresholdReport on every input.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.size
    mags = np.abs(u)
    if k == 0:
        top = mags.max() if n else 0.0
        return np.empty(0, dtype=np.int64), ThresholdReport(math.inf, math.inf, float(top))
    if k == n:
        kth = float(mags.min())
        return np.arange(n, dtype=np.int64), ThresholdReport(kth, kth, 0.0)
    part = np.argpartition(mags, n - k)[n - k:]
    kth = float(mags[part].min())
    above = np.flatnonzero(mags > kth)
    short = k - above.size
    if short:
        tied = np.flatnonzero(mags == kth)
        support = np.concatenate([above, tied[:short]])
        kplus1 = kth if tied.size > short else float(mags[mags < kth].max())
    else:
        support = above
        kplus1 = kth
    support = np.sort(support).astype(np.int64)
    return support, ThresholdReport((kth + kplus1) / 2.0, kth, kplus1)


def ref_error_feedback_step(g_tilde, e, eta, k):
    """The copying error feedback step: (msg, e_next, g, support), e untouched."""
    g = g_tilde + eta * e
    support, _ = ref_top_k_select(g, k)
    signs = np.sign(g[support]).astype(np.int8)
    msg = SparseSignVector(g.size, support[signs != 0], signs[signs != 0])
    e_next = g.copy()
    e_next[support] = 0.0
    return msg, e_next, g, support


@st.composite
def tie_heavy_vectors(draw):
    """Vectors built to tie: small integers, one magnitude, +-x pairs, zeros."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["small_int", "all_equal", "pairs", "zeros"]))
    if kind == "small_int":
        u = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    elif kind == "all_equal":
        x = draw(st.sampled_from([0.0, 0.5, 2.0, 1e300]))
        u = [x * draw(st.sampled_from([-1, 1])) for _ in range(n)]
    elif kind == "pairs":
        xs = draw(st.lists(st.sampled_from([0.25, 1.0, 3.0]), min_size=n, max_size=n))
        u = draw(st.permutations([v for x in xs for v in (x, -x)]))
    else:
        u = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.0]), min_size=n, max_size=n))
    return np.array(u, dtype=np.float64)


def edge_or_any_k(data, n):
    """K at an edge (0, 1, N - 1, N) or anywhere in [0, N]."""
    edges = sorted({0, min(1, n), max(n - 1, 0), n})
    return data.draw(st.one_of(st.sampled_from(edges), st.integers(0, n)))


class TestAgainstArgpartitionReference:
    @given(tie_heavy_vectors(), st.data())
    @settings(max_examples=600, deadline=None)
    def test_same_support_and_report_on_ties(self, u, data):
        k = edge_or_any_k(data, u.size)
        support, report = top_k_select(u, k)
        ref_support, ref_report = ref_top_k_select(u, k)
        assert support.dtype == ref_support.dtype == np.int64
        assert support.tolist() == ref_support.tolist()
        assert report == ref_report

    def test_same_support_and_report_on_random_input(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(1, 3000))
            # rounding to 0-3 decimals makes many magnitudes tie
            u = np.round(rng.normal(size=n), int(rng.integers(0, 4)))
            for k in {0, 1, n - 1, n, int(rng.integers(0, n + 1))}:
                support, report = top_k_select(u, k)
                ref_support, ref_report = ref_top_k_select(u, k)
                assert np.array_equal(support, ref_support)
                assert report == ref_report

    @given(tie_heavy_vectors(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_error_feedback_matches_copying_step(self, g_tilde, data):
        n = g_tilde.size
        e = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
        eta = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        k = edge_or_any_k(data, n)
        ref_msg, ref_e_next, ref_g, ref_support = ref_error_feedback_step(g_tilde, e, eta, k)
        given_g = g_tilde.copy()
        support, sent = error_feedback_step(given_g, e, eta, k)
        assert SignBatch.quantize(n, support[None], sent[None])[0] == ref_msg
        assert support.tolist() == ref_support.tolist()
        assert e.tobytes() == ref_e_next.tobytes()
        assert sent.tobytes() == ref_g[ref_support].tobytes()
        assert given_g.tobytes() == g_tilde.tobytes()


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

    def test_signs_on_the_selection(self):
        u = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
        support = rand_k_select(u, 3, np.random.default_rng(9))
        msg = rand_k_sign(u, 3, np.random.default_rng(9))
        assert msg.indices.tolist() == support.tolist()
        assert msg.signs.tolist() == np.sign(u[support]).tolist()


def feedback(g_tilde, e, eta, k):
    """error_feedback_step on a float copy of e, as (msg, e_next, g, support).

    g, the corrected gradient, is put back together from what the step
    returns: the new memory, with the sent values at the support.
    """
    e_next = np.array(e, dtype=np.float64)
    support, sent = error_feedback_step(g_tilde, e_next, eta, k)
    g = e_next.copy()
    g[support] = sent
    return SignBatch.quantize(g.size, support[None], sent[None])[0], e_next, g, support


class TestErrorFeedbackStep:
    def test_worked_example(self):
        msg, e_next, g, _ = feedback(
            np.array([2.0, -1.0]), np.array([1.0, 0.0]), 1.0, 1
        )
        assert g.tolist() == [3.0, -1.0]
        assert msg.entries == [(0, 1)]
        assert e_next.tolist() == [0.0, -1.0]

    def test_eta_zero_ignores_memory(self):
        g_tilde = np.array([2.0, -1.0, 0.5])
        _, e_a, g_a, _ = feedback(g_tilde, np.array([5.0, 5.0, 5.0]), 0.0, 1)
        _, e_b, g_b, _ = feedback(g_tilde, np.zeros(3), 0.0, 1)
        assert (g_a == g_tilde).all() and (g_b == g_tilde).all()
        assert (e_a == e_b).all()

    def test_k_zero_everything_retained(self):
        g_tilde = np.array([1.0, -2.0])
        msg, e_next, g, _ = feedback(g_tilde, np.array([0.5, 0.5]), 1.0, 0)
        assert len(msg) == 0
        assert (e_next == g).all()

    def test_k_full_memory_clears(self):
        _, e_next, _, _ = feedback(np.array([1.0, -2.0]), np.array([3.0, 4.0]), 1.0, 2)
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
        msg, e_next, g, _ = feedback(g_tilde, e, eta, k)
        # selected mass plus retained mass reconstructs g exactly
        selected = g - e_next
        assert (selected + e_next == g).all()
        # retained part is zero exactly on the selected support
        zeroed = np.flatnonzero(e_next == 0.0)
        assert set(msg.indices.tolist()) <= set(zeroed.tolist())
        assert np.count_nonzero(selected) <= k

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            feedback(np.ones(3), np.ones(2), 1.0, 1)

    def test_negative_eta(self):
        with pytest.raises(ValueError):
            feedback(np.ones(2), np.ones(2), -0.5, 1)

    def test_updates_one_memory_row_in_place(self):
        rng = np.random.default_rng(3)
        memory = rng.normal(size=(3, 50))
        before = memory.copy()
        g_tilde = rng.normal(size=50)
        support, sent = error_feedback_step(g_tilde, memory[1], 0.5, 7)
        g = g_tilde + 0.5 * before[1]
        assert support.tolist() == top_k_select(g, 7)[0].tolist()
        assert sent.tolist() == g[support].tolist()
        expected = g.copy()
        expected[support] = 0.0
        assert memory[1].tolist() == expected.tolist()
        assert np.array_equal(memory[[0, 2]], before[[0, 2]])
        assert SignBatch.quantize(50, support[None], sent[None])[0] == top_k_sign(g, 7)

    def test_memory_must_be_a_float64_array(self):
        for e in ([0.0, 0.0], np.zeros(2, dtype=np.float32), np.zeros(2, dtype=np.int64)):
            with pytest.raises(ValueError, match="float64"):
                error_feedback_step(np.ones(2), e, 1.0, 1)

    def test_k_out_of_range_leaves_memory_alone(self):
        e = np.ones(3)
        with pytest.raises(ValueError):
            error_feedback_step(np.ones(3), e, 0.5, 4)
        assert e.tolist() == [1.0, 1.0, 1.0]


@st.composite
def worker_rows(draw, rows=None):
    """(g_tilde, memory, eta, k): R = 1 or several rows of N, each of small
    integers (ties at the K-th magnitude and exact zeros), distinct
    magnitudes, or one magnitude throughout."""
    n = draw(st.integers(1, 24))
    r = draw(st.sampled_from([1, draw(st.integers(2, 6))])) if rows is None else rows

    def row():
        kind = draw(st.sampled_from(["small_int", "distinct", "one_magnitude"]))
        if kind == "small_int":
            return draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
        if kind == "distinct":
            return [s * m for s, m in zip(signs, draw(st.permutations(range(1, n + 1))))]
        return [s * 0.5 for s in signs]

    g_tilde = np.array([row() for _ in range(r)], dtype=np.float64)
    memory = np.array([row() for _ in range(r)], dtype=np.float64)
    eta = draw(st.sampled_from([0.0, 1.0, 0.7]))
    k = draw(st.one_of(st.sampled_from(sorted({0, 1, n})), st.integers(0, n)))
    return g_tilde, memory, eta, k


def ref_rows(g_tilde, memory, eta, k):
    """Row by row from top_k_select: (columns, sent, memory after, |g|)."""
    g = eta * memory + g_tilde
    columns = [top_k_select(row, k)[0] for row in g]
    after = g.copy()
    for row, support in zip(after, columns):
        row[support] = 0.0
    sent = [row[support] for row, support in zip(g, columns)]
    return columns, sent, after, np.abs(g)


class TestErrorFeedbackRows:
    @given(worker_rows())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_per_row_reference(self, block):
        g_tilde, memory, eta, k = block
        columns, sent, after, mags = ref_rows(g_tilde, memory, eta, k)
        got_columns, got_sent = _error_feedback_rows(g_tilde, memory, eta, k)
        assert got_columns.shape == got_sent.shape == (len(memory), k)
        assert got_columns.dtype == np.int64
        for r in range(len(memory)):
            assert got_columns[r].tolist() == columns[r].tolist()
            assert got_sent[r].tobytes() == sent[r].tobytes()
        assert memory.tobytes() == after.tobytes()
        assert g_tilde.tobytes() == mags.tobytes()

    @given(worker_rows(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_nan_raises_as_in_its_row(self, block, data):
        g_tilde, memory, eta, k = block
        r, n = memory.shape
        g_tilde[data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, n - 1))] = np.nan
        raising = []
        for g_row, e_row in zip(g_tilde, memory):
            try:
                top_k_select(eta * e_row + g_row, k)
            except ValueError as err:
                raising.append(str(err))
        if raising:
            assert raising[0] == "cannot rank NaN magnitudes"
            with pytest.raises(ValueError, match="^cannot rank NaN magnitudes$"):
                _error_feedback_rows(g_tilde, memory, eta, k)
        else:
            _error_feedback_rows(g_tilde, memory, eta, k)

    @given(st.integers(2, 24), st.sampled_from([1, 6]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_nan_among_distinct_magnitudes_raises(self, n, r, data):
        g_tilde = np.arange(1.0, r * n + 1).reshape(r, n)
        g_tilde[data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, n - 1))] = np.nan
        with pytest.raises(ValueError, match="^cannot rank NaN magnitudes$"):
            _error_feedback_rows(g_tilde, np.zeros((r, n)), 1.0, data.draw(st.integers(1, n - 1)))


class TestSparseSignVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseSignVector(4, np.array([2, 1]), np.array([1, 1]))  # not increasing
        with pytest.raises(ValueError):
            SparseSignVector(4, np.array([0, 4]), np.array([1, 1]))  # out of range
        with pytest.raises(ValueError):
            SparseSignVector(4, np.array([0]), np.array([2]))  # bad sign

    @pytest.mark.parametrize(
        "indices, signs, message",
        [
            ([1, 1], [1, 1], "strictly increasing"),         # repeated index
            ([0, 2, 2, 3], [1, -1, 1, 1], "strictly increasing"),
            ([-1, 2], [1, 1], "out of range"),               # negative index
            ([1, 2], [1, 0], "signs must be"),
            ([1, 2], [127, 1], "signs must be"),              # 127 * 127 wraps to 1 in int8
            ([1, 2], [-1, -128], "signs must be"),            # abs(-128) is -128 in int8
        ],
    )
    def test_rejects(self, indices, signs, message):
        with pytest.raises(ValueError, match=message):
            SparseSignVector(4, np.array(indices), np.array(signs, dtype=np.int8))

    def test_equality_and_dense(self):
        a = SparseSignVector(4, np.array([1, 3]), np.array([1, -1]))
        b = SparseSignVector(4, np.array([1, 3]), np.array([1, -1]))
        assert a == b and len(a) == 2
        assert a.to_dense().tolist() == [0, 1, 0, -1]


SIGN_CASES = [-2.5, 0.0, 1.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf]


def assert_quantizes_batch(dim, columns, values):
    """SignBatch._unchecked on (M, K) rows gives SignBatch.quantize's batch,
    field by field, with its types and dtypes."""
    ours, checked = SignBatch._unchecked(dim, columns, values), SignBatch.quantize(dim, columns, values)
    for name in ("dim", "indices", "signs", "counts"):
        a, b = getattr(ours, name), getattr(checked, name)
        assert type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)


@st.composite
def selections(draw):
    """(dim, supports, values) of up to 5 workers as (M, K) rows, with exact
    zeros among the values, so the messages' counts may differ, and the
    values whose sign is easiest to get wrong: -0.0, the least subnormals and
    the infinities."""
    dim = draw(st.integers(1, 12))
    k = draw(st.integers(0, dim))
    m = draw(st.integers(1, 5))
    supports = np.array([sorted(draw(st.sets(st.integers(0, dim - 1), min_size=k, max_size=k)))
                         for _ in range(m)], dtype=np.int64).reshape(m, k)
    values = np.array(draw(st.lists(st.sampled_from(SIGN_CASES), min_size=m * k, max_size=m * k)))
    return dim, supports, values.reshape(m, k)


class TestSignBatch:
    @pytest.mark.parametrize(
        "dim, indices, signs, counts, message",
        [
            (-1, [], [], [], "dim must be non-negative"),
            (4, [0, 1], [1], [2], "indices and signs must be 1-D arrays of equal length"),
            (4, [[0, 1]], [[1, 1]], [2], "indices and signs must be 1-D arrays of equal length"),
            (4, [0, 1], [1, 1], [1], "counts must be non-negative and sum to the 2 entries"),
            (4, [0, 1], [1, 1], [3, -1], "counts must be non-negative and sum to the 2 entries"),
            (4, [0, 1], [1, 1], [[1, 1]], "counts must be non-negative and sum to the 2 entries"),
            (4, [0, 4], [1, 1], [1, 1], "indices out of range for dim=4"),
            (4, [2, -1], [1, 1], [1, 1], "indices out of range for dim=4"),
            (4, [1, 0], [1, 1], [2], "indices must be strictly increasing"),
            (4, [3, 0, 2, 2], [1, 1, 1, 1], [1, 3], "indices must be strictly increasing"),
            (4, [3, 1, 0], [1, 1, 1], [1, 0, 2, 0], "indices must be strictly increasing"),
            (4, [0, 1], [1, 0], [1, 1], "signs must be -1 or +1"),
            (4, [0, 1], [1, -128], [1, 1], "signs must be -1 or +1"),
        ],
    )
    def test_each_broken_rule_is_one_error_line(self, dim, indices, signs, counts, message):
        with pytest.raises(ValueError) as err:
            SignBatch(dim, np.array(indices), np.array(signs, dtype=np.int8), counts)
        assert str(err.value).startswith(message) and "\n" not in str(err.value)

    def test_indices_fall_where_a_message_starts_and_rows_may_be_empty(self):
        batch = SignBatch(4, [3, 0, 1, 2, 0], [1, -1, 1, 1, -1], [0, 1, 0, 3, 1, 0])
        rows = [msg.entries for msg in batch]
        assert rows == [[], [(3, 1)], [], [(0, -1), (1, 1), (2, 1)], [(0, -1)], []]
        assert len(batch) == 6 and batch[-3] == batch[3]
        assert SignBatch.stack(list(batch), 4) == batch
        with pytest.raises(IndexError):
            batch[6]

    @given(selections())
    @example((12, np.array([np.arange(8)]), np.array([SIGN_CASES])))
    @settings(max_examples=200, deadline=None)
    def test_quantize_is_the_stacked_per_message_signs(self, selection):
        dim, supports, values = selection
        expected = [SparseSignVector(dim, s[v != 0], np.sign(v[v != 0]).astype(np.int8))
                    for s, v in zip(supports, values)]
        assert SignBatch.quantize(dim, supports, values) == SignBatch.stack(expected, dim)

    # No check reads the engine's batches: these two properties are what
    # keeps their layout right.
    @given(worker_rows(), st.sampled_from(["topk", "randk"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_the_unchecked_batch_is_quantizes_batch(self, block, selector, seed):
        """The engine's batch of a round, from the supports and values that
        _error_feedback_rows (with memory, at eta 1 and not 1) or
        rand_k_select give on rows with exact zeros and ties at the K-th
        magnitude, has quantize's fields and dtypes."""
        g, memory, eta, k = block
        if selector == "topk":
            columns, values = _error_feedback_rows(g, memory, eta, k)
        else:
            rng = np.random.default_rng(seed)
            columns = np.array([rand_k_select(row, k, rng) for row in g]).reshape(len(g), k)
            values = np.take_along_axis(g, columns, axis=1)
        assert_quantizes_batch(g.shape[1], columns, values)

    @given(worker_rows(), st.sampled_from(["S3GD_MV", "S3GD_MV_RANDK"]), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_the_worker_phases_batch_is_quantizes_batch(self, block, algorithm, one_row_blocks, seed):
        """As above, through the engine's worker phase on one thread, as one
        block of all the workers or as one-row blocks."""
        g, memory, eta, k = block
        rngs = [np.random.default_rng([seed, m]) for m in range(len(g))]
        size = 1 if one_row_blocks else simulator._THREADED_MIN_DIM
        with mock.patch.object(simulator, "_THREADED_MIN_DIM", size):
            columns, sent = simulator._worker_phase(None, 1, ALGORITHMS[algorithm], g, memory, eta, k,
                                                    rngs, g.shape[1])
        assert_quantizes_batch(g.shape[1], columns, sent)

    @pytest.mark.parametrize("value", SIGN_CASES)
    def test_quantize_takes_each_values_sign_with_no_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = SignBatch.quantize(4, [[1, 3]], [[value, -1.0]])
        sign = [] if value == 0 else [(1, 1 if value > 0 else -1)]
        assert batch[0].entries == [*sign, (3, -1)] and batch.signs.dtype == np.int8

    @pytest.mark.parametrize("value", [math.nan, -math.nan])
    def test_quantize_refuses_a_nan_by_name_with_no_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^values must not hold NaN, which has no sign$"):
                SignBatch.quantize(4, [[1, 3]], [[1.0, value]])
